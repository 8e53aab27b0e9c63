// Name-keyed registry of defense front ends.
//
// Every defense registers a builder under its canonical name, the name a
// scenario's "defense" key gives. The experiment harness constructs whatever
// the scenario asks for by name, so adding a defense touches no harness
// code. The six built-ins (none, retry, auction, quantum, elastic, puzzle)
// register in the factory's constructor, each from the one FrontEndConfig;
// "none" is the elastic front end with scaling off. Anything else, such as
// a test's fake defense, registers through register_defense, and every
// scenario, bench and sweep can then run it.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/front_end.hpp"
#include "transport/host.hpp"
#include "util/rng.hpp"

namespace speakup::core {

class FrontEndFactory {
 public:
  /// Builds a defense on `host` (the thinner host). `server_rng` seeds the
  /// emulated server's service-time draws.
  using Builder = std::function<std::unique_ptr<FrontEnd>(
      transport::Host& host, const FrontEndConfig& cfg, util::RngStream server_rng)>;

  /// The process-wide registry, with the built-in defenses pre-registered.
  static FrontEndFactory& instance();

  /// Registers a defense; throws std::invalid_argument on a duplicate name.
  void register_defense(const std::string& name, Builder builder);

  /// Removes a registration (used by tests to clean up after themselves).
  void unregister_defense(const std::string& name);

  [[nodiscard]] bool contains(std::string_view name) const;

  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Constructs the named defense; throws std::invalid_argument for an
  /// unknown name. Thread-safe: Runner workers build concurrently.
  [[nodiscard]] std::unique_ptr<FrontEnd> create(std::string_view name,
                                                 transport::Host& host,
                                                 const FrontEndConfig& cfg,
                                                 util::RngStream server_rng) const;

 private:
  FrontEndFactory();

  mutable std::mutex mu_;
  std::vector<std::pair<std::string, Builder>> builders_;
};

}  // namespace speakup::core
