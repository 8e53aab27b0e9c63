#include "core/front_end_factory.hpp"

#include <algorithm>
#include <sstream>

#include "core/auction_thinner.hpp"
#include "core/elastic_front_end.hpp"
#include "core/puzzle_front_end.hpp"
#include "core/quantum_thinner.hpp"
#include "core/retry_thinner.hpp"
#include "util/assert.hpp"

namespace speakup::core {

FrontEndFactory& FrontEndFactory::instance() {
  static FrontEndFactory factory;
  return factory;
}

namespace {
// Builds `Defense` from the shared config, passing `extra` after the RNG.
template <class Defense, auto... extra>
FrontEndFactory::Builder builder() {
  return [](transport::Host& host, const FrontEndConfig& cfg,
            util::RngStream rng) -> std::unique_ptr<FrontEnd> {
    return std::make_unique<Defense>(host, cfg, std::move(rng), extra...);
  };
}
}  // namespace

// The built-ins register here rather than through static registrars in
// their own files: a linker drops a library object that nothing references,
// and nothing outside the factory names the concrete defenses.
FrontEndFactory::FrontEndFactory() {
  builders_.emplace_back("auction", builder<AuctionThinner>());
  builders_.emplace_back("retry", builder<RetryThinner>());
  builders_.emplace_back("none", builder<ElasticFrontEnd, /*unscaled=*/true>());
  builders_.emplace_back("quantum", builder<QuantumAuctionThinner>());
  builders_.emplace_back("elastic", builder<ElasticFrontEnd>());
  builders_.emplace_back("puzzle", builder<PuzzleFrontEnd>());
}

void FrontEndFactory::register_defense(const std::string& name, Builder builder) {
  util::require(!name.empty(), "front-end name must be non-empty");
  util::require(builder != nullptr, "front-end builder must be callable");
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [existing, unused] : builders_) {
    (void)unused;
    util::require(existing != name, "front end '" + name + "' is already registered");
  }
  builders_.emplace_back(name, std::move(builder));
}

void FrontEndFactory::unregister_defense(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(builders_, [&](const auto& entry) { return entry.first == name; });
}

bool FrontEndFactory::contains(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::any_of(builders_.begin(), builders_.end(),
                     [&](const auto& entry) { return entry.first == name; });
}

std::vector<std::string> FrontEndFactory::names() const {
  std::vector<std::string> out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out.reserve(builders_.size());
    for (const auto& [name, unused] : builders_) {
      (void)unused;
      out.push_back(name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<FrontEnd> FrontEndFactory::create(std::string_view name,
                                                  transport::Host& host,
                                                  const FrontEndConfig& cfg,
                                                  util::RngStream server_rng) const {
  Builder builder;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find_if(builders_.begin(), builders_.end(),
                                 [&](const auto& entry) { return entry.first == name; });
    if (it == builders_.end()) {
      std::ostringstream os;
      os << "unknown front end '" << name << "' (registered:";
      for (const auto& [n, unused] : builders_) {
        (void)unused;
        os << " " << n;
      }
      os << ")";
      throw std::invalid_argument(os.str());
    }
    builder = it->second;
  }
  return builder(host, cfg, std::move(server_rng));
}

}  // namespace speakup::core
