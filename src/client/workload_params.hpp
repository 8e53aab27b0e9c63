// The §7.1 workload knobs one client population shares, and the paper's
// good/bad presets.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "client/strategy.hpp"
#include "http/message.hpp"
#include "util/units.hpp"

namespace speakup::client {

struct WorkloadParams {
  double lambda = 2.0;
  int window = 1;
  http::ClientClass cls = http::ClientClass::kGood;
  int difficulty = 1;
  Bytes post_size = megabytes(1);
  /// Outstanding requests wait a long time (like a browser); the paper's
  /// 10 s denial rule (§7.1) applies to the *backlog queue* below.
  Duration request_timeout = Duration::seconds(300);
  Duration backlog_timeout = Duration::seconds(10);
  /// §3.2 mode: target number of unacked retry messages kept in flight.
  int retry_pipeline = 64;
  std::uint32_t request_port = 80;
  std::uint32_t payment_port = 81;
  /// Behavior strategy: a client::StrategyFactory registry key. The default
  /// "poisson" reproduces the pre-strategy client bit for bit.
  std::string strategy = "poisson";
  /// Named per-strategy knobs (scenario files: the `strategy_params` block).
  std::vector<std::pair<std::string, double>> strategy_knobs;
};

/// The strategy-construction view of a WorkloadParams: base knobs every
/// strategy shares, plus the free-form named knobs.
[[nodiscard]] inline StrategyParams strategy_params(const WorkloadParams& p) {
  StrategyParams sp;
  sp.lambda = p.lambda;
  sp.window = p.window;
  sp.retry_pipeline = p.retry_pipeline;
  sp.knobs = p.strategy_knobs;
  return sp;
}

/// Paper defaults (§7.1).
[[nodiscard]] inline WorkloadParams good_client_params() {
  WorkloadParams p;
  p.lambda = 2.0;
  p.window = 1;
  p.cls = http::ClientClass::kGood;
  return p;
}

[[nodiscard]] inline WorkloadParams bad_client_params() {
  WorkloadParams p;
  p.lambda = 40.0;
  p.window = 20;
  p.cls = http::ClientClass::kBad;
  return p;
}

}  // namespace speakup::client
