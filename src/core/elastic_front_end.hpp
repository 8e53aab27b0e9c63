// The undefended baseline ("none") and Bohatei-style elastic capacity
// ("elastic", Fayaz et al., USENIX Security 2015) are one front end.
//
// Admission serves whichever request arrives while the server is free and
// answers kBusy otherwise, the moral equivalent of a refused connection or
// a 503. The server's attention therefore divides in proportion to request
// rates, which is what lets high-rate attackers crowd good clients out
// (§3, Figure 1(a)). That is the "without speak-up" curve of Figures 2
// and 3.
//
// "elastic" answers overload not by charging clients but by provisioning
// more server capacity: a periodic monitor watches the server's busy
// fraction and doubles capacity, up to elastic_max_scale times the base
// rate, whenever an interval runs at or above elastic_threshold. The
// tournament uses it as the "scale out instead of charging" column. It
// restores good-client service under load but pays in provisioned capacity
// rather than attacker bandwidth, and it cannot tell good demand from bad.
//
// "none" is this front end unscaled: the monitor is never armed. So is
// "elastic" with elastic_max_scale == 1.0, which makes a run event for
// event identical to "none" (adversarial_test.cpp holds this invariant).
#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>

#include "core/thinner.hpp"

namespace speakup::core {

class ElasticFrontEnd : public Thinner<server::EmulatedServer> {
 public:
  /// `unscaled` builds "none": the elastic_* fields are ignored.
  ElasticFrontEnd(transport::Host& host, const FrontEndConfig& cfg, util::RngStream server_rng,
                  bool unscaled = false);

  [[nodiscard]] std::string_view name() const override {
    return unscaled_ ? "none" : "elastic";
  }
  [[nodiscard]] std::size_t contending() const override { return serving_.size(); }

  void on_run_start() override;

  /// Current capacity multiplier (1.0 until the monitor first scales up).
  [[nodiscard]] double scale() const { return scale_; }

 private:
  struct Pending {
    http::ClientClass cls = http::ClientClass::kNeutral;
    http::MessageStream* session = nullptr;
  };

  void on_request(http::MessageStream& s, const http::Message& m) override;
  void on_stream_lost(std::uint64_t id, http::MessageStream& s) override;
  void on_server_complete(const server::ServiceRequest& done) override;
  void on_monitor_tick();

  bool unscaled_;
  double scale_ = 1.0;
  Duration busy_at_tick_ = Duration::zero();
  std::unordered_map<std::uint64_t, Pending> serving_;
};

}  // namespace speakup::core
