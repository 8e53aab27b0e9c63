// Builds a ScenarioConfig into a simulated testbed, runs it, and harvests
// the numbers the paper's figures report.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/client_pool.hpp"
#include "client/client_stats.hpp"
#include "client/file_transfer.hpp"
#include "client/payment_proxy.hpp"
#include "core/front_end.hpp"
#include "core/thinner_stats.hpp"
#include "exp/scenario.hpp"
#include "net/network.hpp"
#include "sim/event_loop.hpp"
#include "stats/sample_set.hpp"
#include "transport/host.hpp"

namespace speakup::exp {

struct GroupResult {
  std::string label;
  int count = 0;
  http::ClientClass cls = http::ClientClass::kGood;
  std::string strategy;                       // the group's workload strategy
  client::ClientStats totals;                 // merged over the group's clients
  std::vector<std::int64_t> served_per_client;
  double allocation = 0.0;                    // share of all served requests
};

/// Per-strategy rollup: GroupResults merged across every group running the
/// same workload strategy (adversary-library breakdowns).
struct StrategyResult {
  std::string strategy;
  int clients = 0;
  client::ClientStats totals;
  double allocation = 0.0;  // share of all served requests
};

struct ExperimentResult {
  // Aggregates (by served request counts, as in Figures 2, 3, 6, 7, 8).
  std::int64_t served_total = 0;
  std::int64_t served_good = 0;
  std::int64_t served_bad = 0;
  double allocation_good = 0.0;
  double allocation_bad = 0.0;
  /// §5 metric: share of server *time* (heterogeneous requests make counts
  /// and time differ).
  double server_time_good = 0.0;
  double server_time_bad = 0.0;
  /// The paper's "fraction of good requests served" (Figure 3).
  double fraction_good_served = 0.0;
  double server_busy_fraction = 0.0;

  core::ThinnerStats thinner;
  std::vector<GroupResult> groups;

  /// Groups merged by workload strategy, in first-appearance order.
  [[nodiscard]] std::vector<StrategyResult> strategy_totals() const;

  /// The tournament's attacker-cost score: bytes the bad-class populations
  /// transmitted at the front end — payment-channel bytes plus a request
  /// header per request and retry sent. Derived entirely from fields the
  /// fingerprint already covers, so it adds no new determinism surface.
  [[nodiscard]] std::int64_t attacker_bytes() const;

  // §7.7 bystander.
  stats::SampleSet collateral_latencies;
  int collateral_failures = 0;

  // §9 payment proxy (zero when the scenario has none).
  std::int64_t proxy_relayed_requests = 0;
  std::int64_t proxy_payments_started = 0;

  // Run metadata.
  std::string defense;  // front-end registry name the run used
  Duration sim_duration = Duration::zero();
  std::uint64_t events_executed = 0;
  double wall_seconds = 0.0;  // host time; the one nondeterministic field

  /// FNV-1a digest of every deterministic field — two runs of the same
  /// scenario and seed must produce equal fingerprints no matter which
  /// thread (or process) ran them. wall_seconds is excluded.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

class Experiment {
 public:
  explicit Experiment(ScenarioConfig cfg);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Runs the scenario to completion and returns the harvested results.
  /// Callable once.
  ExperimentResult run();

  // Component access for tests.
  [[nodiscard]] sim::EventLoop& loop() { return loop_; }
  [[nodiscard]] net::Network& network() { return *net_; }
  [[nodiscard]] const ScenarioConfig& config() const { return cfg_; }

  /// The defense this experiment runs, whatever its concrete type.
  [[nodiscard]] core::FrontEnd* front_end() { return front_end_.get(); }

  [[nodiscard]] client::PaymentProxy* payment_proxy() { return proxy_.get(); }

 private:
  void build();

  ScenarioConfig cfg_;
  sim::EventLoop loop_;
  std::unique_ptr<net::Network> net_;
  transport::Host* thinner_host_ = nullptr;
  std::unique_ptr<core::FrontEnd> front_end_;
  std::vector<std::unique_ptr<client::ClientPool>> pools_;  // parallel to cfg_.groups
  std::unique_ptr<client::PaymentProxy> proxy_;
  std::unique_ptr<client::StaticFileServer> file_server_;
  std::unique_ptr<client::FileTransferClient> downloader_;
  bool ran_ = false;
};

/// Convenience: build + run in one call.
[[nodiscard]] ExperimentResult run_scenario(const ScenarioConfig& cfg);

}  // namespace speakup::exp
