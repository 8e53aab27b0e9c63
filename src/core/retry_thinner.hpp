// The speak-up variant of §3.2: random drops and aggressive retries.
//
// The thinner admits a request when the server is free; otherwise it
// immediately replies kRetry — the synchronous "please retry now" signal.
// Clients react by streaming retries in a congestion-controlled stream
// (they pipeline without waiting for each kRetry; the TCP stream itself
// paces them). Because the thinner admits whichever retry arrives first
// at a free server, admissions are distributed in proportion to delivered
// retry rates — i.e., to bandwidth — which is the §3.2 allocation argument.
// The price (retries per admission, r = 1/p) emerges; it is recorded in
// ThinnerStats::retries_good/bad.
#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>

#include "core/thinner.hpp"

namespace speakup::core {

class RetryThinner : public Thinner<server::EmulatedServer> {
 public:
  RetryThinner(transport::Host& host, const FrontEndConfig& cfg, util::RngStream server_rng)
      : Thinner(host, cfg, std::move(server_rng)) {}

  [[nodiscard]] std::string_view name() const override { return "retry"; }
  [[nodiscard]] std::size_t contending() const override { return states_.size(); }

 private:
  struct RequestState {
    http::ClientClass cls = http::ClientClass::kNeutral;
    int difficulty = 1;
    http::MessageStream* session = nullptr;
    std::int64_t retries = 0;
    bool serving = false;
  };

  void on_request(http::MessageStream& s, const http::Message& m) override;
  void on_stream_lost(std::uint64_t id, http::MessageStream& s) override;
  void on_server_complete(const server::ServiceRequest& done) override;

  std::unordered_map<std::uint64_t, RequestState> states_;
};

}  // namespace speakup::core
