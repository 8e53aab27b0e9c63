// Tests for the experiment harness: scenario construction, validation,
// determinism, and basic sanity of every built-in defense end to end.
#include <gtest/gtest.h>

#include "core/theory.hpp"
#include "exp/experiment.hpp"
#include "exp/scenario.hpp"

namespace speakup::exp {
namespace {

ScenarioConfig small_lan(const std::string& defense, double c = 50.0) {
  ScenarioConfig cfg = lan_scenario(/*good=*/5, /*bad=*/5, c, defense, /*seed=*/3);
  cfg.duration = Duration::seconds(20.0);
  return cfg;
}

TEST(Scenario, LanScenarioBuildsPaperGroups) {
  const ScenarioConfig cfg = lan_scenario(25, 25, 100.0, "auction");
  ASSERT_EQ(cfg.groups.size(), 2u);
  EXPECT_EQ(cfg.groups[0].label, "good");
  EXPECT_EQ(cfg.groups[0].count, 25);
  EXPECT_DOUBLE_EQ(cfg.groups[0].workload.lambda, 2.0);
  EXPECT_EQ(cfg.groups[1].label, "bad");
  EXPECT_EQ(cfg.groups[1].workload.window, 20);
  EXPECT_EQ(cfg.groups[0].access_bw.bits_per_sec(), 2'000'000);
}

TEST(Scenario, DefenseDefaultsToAuction) {
  EXPECT_EQ(ScenarioConfig{}.defense, "auction");
  EXPECT_EQ(lan_scenario(1, 1, 10.0, "retry").defense, "retry");
}

TEST(Experiment, RejectsInvalidConfig) {
  ScenarioConfig cfg = small_lan("auction");
  cfg.capacity_rps = 0;
  EXPECT_THROW(Experiment{cfg}, std::invalid_argument);
  cfg = small_lan("auction");
  cfg.duration = Duration::zero();
  EXPECT_THROW(Experiment{cfg}, std::invalid_argument);
  cfg = small_lan("auction");
  cfg.groups[0].behind_bottleneck = true;  // no bottleneck configured
  EXPECT_THROW(Experiment{cfg}, std::invalid_argument);
}

TEST(Experiment, RunIsCallableOnce) {
  Experiment e(small_lan("none"));
  (void)e.run();
  EXPECT_THROW((void)e.run(), std::invalid_argument);
}

TEST(Experiment, ExposesSelectedThinner) {
  // One polymorphic front end per experiment, named after the mode.
  Experiment a(small_lan("auction"));
  ASSERT_NE(a.front_end(), nullptr);
  EXPECT_EQ(a.front_end()->name(), "auction");
  Experiment r(small_lan("retry"));
  EXPECT_EQ(r.front_end()->name(), "retry");
  Experiment n(small_lan("none"));
  EXPECT_EQ(n.front_end()->name(), "none");
  Experiment q(small_lan("quantum"));
  EXPECT_EQ(q.front_end()->name(), "quantum");
}

TEST(Experiment, DeterministicAcrossRuns) {
  const ExperimentResult a = run_scenario(small_lan("auction"));
  const ExperimentResult b = run_scenario(small_lan("auction"));
  EXPECT_EQ(a.served_total, b.served_total);
  EXPECT_EQ(a.served_good, b.served_good);
  EXPECT_EQ(a.served_bad, b.served_bad);
  EXPECT_EQ(a.thinner.payment_bytes_total, b.thinner.payment_bytes_total);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(Experiment, SeedChangesOutcomeDetails) {
  ScenarioConfig cfg = small_lan("auction");
  const ExperimentResult a = run_scenario(cfg);
  cfg.seed = 999;
  const ExperimentResult b = run_scenario(cfg);
  EXPECT_NE(a.events_executed, b.events_executed);
}

TEST(Experiment, NoDefenseMatchesRequestRateTheory) {
  // Good demand 5*2 = 10 req/s, bad demand ~5*40 = 200 req/s; the random
  // drop baseline gives good clients about g/(g+B) of the server.
  const ExperimentResult r = run_scenario(small_lan("none"));
  EXPECT_GT(r.served_total, 0);
  const double ideal = core::theory::no_defense_good_allocation(10.0, 200.0);
  EXPECT_NEAR(r.allocation_good, ideal, 0.05);
  // The server is near-saturated (idle gaps between completion and the next
  // arrival keep it slightly below 1 at this small scale: ~20 ms service vs
  // ~5 ms mean arrival gap -> ~0.8).
  EXPECT_GT(r.server_busy_fraction, 0.7);
}

TEST(Experiment, AuctionBeatsNoDefenseForGoodClients) {
  // With 5 good clients the good population is demand-limited: g = 10 req/s
  // against c = 50, so the §3.1 goal min(g, c*G/(G+B)) = g — i.e. the good
  // clients should be fully satisfied (allocation 10/50 = 0.2) rather than
  // capture the bandwidth-proportional 0.5.
  const ExperimentResult off = run_scenario(small_lan("none"));
  const ExperimentResult on = run_scenario(small_lan("auction"));
  EXPECT_GT(on.allocation_good, off.allocation_good * 3);
  EXPECT_NEAR(on.allocation_good, 0.2, 0.05);
  EXPECT_GT(on.fraction_good_served, 0.9);
}

TEST(Experiment, RetryModeAlsoProtectsGoodClients) {
  const ExperimentResult off = run_scenario(small_lan("none"));
  const ExperimentResult on = run_scenario(small_lan("retry"));
  EXPECT_GT(on.allocation_good, off.allocation_good * 2);
}

TEST(Experiment, QuantumModeServesBothClasses) {
  const ExperimentResult r = run_scenario(small_lan("quantum"));
  EXPECT_GT(r.served_good, 0);
  EXPECT_GT(r.served_bad, 0);
  EXPECT_GT(r.server_time_good, 0.15);
}

TEST(Experiment, OverProvisionedServerSatisfiesEveryone) {
  // c far above demand: all good requests served, prices ~ 0.
  const ExperimentResult r = run_scenario(small_lan("auction", /*c=*/500.0));
  EXPECT_GT(r.fraction_good_served, 0.99);
  EXPECT_LT(r.thinner.price_good.mean(), 20'000.0);
}

TEST(Experiment, GroupResultsSumToTotals) {
  const ExperimentResult r = run_scenario(small_lan("auction"));
  std::int64_t sum = 0;
  double alloc = 0.0;
  for (const GroupResult& g : r.groups) {
    sum += g.totals.served;
    alloc += g.allocation;
    EXPECT_EQ(g.served_per_client.size(), static_cast<std::size_t>(g.count));
  }
  // Thinner-side and client-side counts may differ by in-flight responses
  // at the end of the run.
  EXPECT_NEAR(static_cast<double>(sum), static_cast<double>(r.served_total), 10.0);
  EXPECT_NEAR(alloc, 1.0, 0.02);
}

TEST(Experiment, BottleneckTopologyRuns) {
  ScenarioConfig cfg = small_lan("auction");
  cfg.bottleneck = BottleneckSpec{Bandwidth::mbps(4.0), Duration::micros(500), 50'000};
  cfg.groups[1].behind_bottleneck = true;  // bad clients behind the bottleneck
  const ExperimentResult r = run_scenario(cfg);
  EXPECT_GT(r.served_total, 0);
  // 5 bad clients could deliver 10 Mbit/s but the bottleneck caps them at
  // 4 Mbit/s, so the (demand-limited) good clients stay fully served.
  EXPECT_GT(r.fraction_good_served, 0.9);
  EXPECT_NEAR(r.allocation_good, 0.2, 0.05);
}

TEST(Experiment, CollateralDownloaderMeasuresLatency) {
  ScenarioConfig cfg;
  cfg.defense = "auction";
  cfg.capacity_rps = 2.0;
  cfg.seed = 11;
  cfg.duration = Duration::seconds(40.0);
  ClientGroupSpec g;
  g.label = "good";
  g.count = 3;
  g.workload = client::good_client_params();
  g.behind_bottleneck = true;
  cfg.groups.push_back(g);
  cfg.bottleneck = BottleneckSpec{Bandwidth::mbps(1.0), Duration::millis(100), 100'000};
  CollateralSpec col;
  col.file_size = kilobytes(4);
  col.downloads = 20;
  cfg.collateral = col;
  const ExperimentResult r = run_scenario(cfg);
  EXPECT_GT(r.collateral_latencies.count(), 5u);
  EXPECT_GT(r.collateral_latencies.mean(), 0.0);
}

TEST(Experiment, ReportsRunMetadata) {
  const ExperimentResult r = run_scenario(small_lan("auction"));
  EXPECT_GT(r.events_executed, 1000u);
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_EQ(r.sim_duration.sec(), 20.0);
}

}  // namespace
}  // namespace speakup::exp
