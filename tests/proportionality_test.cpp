// Parameterized property sweeps of the core claim: the speak-up thinner
// allocates the server in rough proportion to delivered bandwidth, across
// bandwidth mixes, population splits and capacities.
#include <gtest/gtest.h>

#include <string>

#include "core/theory.hpp"
#include "exp/experiment.hpp"

namespace speakup::exp {
namespace {

// ---------------------------------------------------------------------------
// Sweep 1: the f-sweep of Figure 2 at reduced scale (16 clients, 25 s).
// Bandwidth-proportionality must hold within a factor tolerance at every f.
// ---------------------------------------------------------------------------

struct FractionCase {
  const char* name;
  int good;
  int bad;
};

class AllocationVsFraction : public ::testing::TestWithParam<FractionCase> {};

TEST_P(AllocationVsFraction, TracksBandwidthShare) {
  const auto& p = GetParam();
  ScenarioConfig cfg =
      lan_scenario(p.good, p.bad, /*capacity=*/32.0, "auction", /*seed=*/51);
  cfg.duration = Duration::seconds(25.0);
  const ExperimentResult r = run_scenario(cfg);
  const double f = static_cast<double>(p.good) / (p.good + p.bad);
  const double ideal = core::theory::ideal_good_allocation(f, 1.0 - f);
  // "Rough proportion": within [0.6, 1.3] of ideal across the sweep. The
  // low end reflects good-client quiescence (§7.3).
  EXPECT_GT(r.allocation_good, 0.6 * ideal) << "f=" << f;
  EXPECT_LT(r.allocation_good, 1.3 * ideal + 0.05) << "f=" << f;
}

INSTANTIATE_TEST_SUITE_P(
    FSweep, AllocationVsFraction,
    ::testing::Values(FractionCase{"f25", 4, 12}, FractionCase{"f38", 6, 10},
                      FractionCase{"f50", 8, 8}, FractionCase{"f62", 10, 6},
                      FractionCase{"f75", 12, 4}),
    [](const ::testing::TestParamInfo<FractionCase>& i) { return i.param.name; });

// ---------------------------------------------------------------------------
// Sweep 2: two all-good bandwidth classes; served ratio tracks the
// bandwidth ratio (Figure 6's property).
// ---------------------------------------------------------------------------

struct BwRatioCase {
  const char* name;
  double slow_mbps;
  double fast_mbps;
};

class AllocationVsBandwidth : public ::testing::TestWithParam<BwRatioCase> {};

TEST_P(AllocationVsBandwidth, ServedRatioTracksBandwidthRatio) {
  const auto& p = GetParam();
  ScenarioConfig cfg;
  cfg.defense = "auction";
  cfg.capacity_rps = 8.0;
  cfg.seed = 52;
  cfg.duration = Duration::seconds(30.0);
  for (const double mbps : {p.slow_mbps, p.fast_mbps}) {
    ClientGroupSpec g;
    g.label = "bw" + std::to_string(mbps);
    g.count = 6;
    g.workload = client::good_client_params();
    g.access_bw = Bandwidth::mbps(mbps);
    cfg.groups.push_back(g);
  }
  const ExperimentResult r = run_scenario(cfg);
  const double want = p.fast_mbps / p.slow_mbps;
  ASSERT_GT(r.groups[0].totals.served, 0);
  const double got = static_cast<double>(r.groups[1].totals.served) /
                     static_cast<double>(r.groups[0].totals.served);
  EXPECT_GT(got, want * 0.55) << "bandwidth ratio " << want;
  EXPECT_LT(got, want * 2.0) << "bandwidth ratio " << want;
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, AllocationVsBandwidth,
    ::testing::Values(BwRatioCase{"r2", 1.0, 2.0}, BwRatioCase{"r3", 0.5, 1.5},
                      BwRatioCase{"r4", 0.5, 2.0}),
    [](const ::testing::TestParamInfo<BwRatioCase>& i) { return i.param.name; });

// ---------------------------------------------------------------------------
// Sweep 3: capacities around c_id; the §3.1 goal min(g, c*G/(G+B)) bounds
// the good service rate from above, and the defense keeps it within a
// constant factor from below.
// ---------------------------------------------------------------------------

struct CapacityCase {
  const char* name;
  double capacity;
};

class ServiceVsCapacity : public ::testing::TestWithParam<CapacityCase> {};

TEST_P(ServiceVsCapacity, GoodServiceRateNearTheoryGoal) {
  const double c = GetParam().capacity;
  ScenarioConfig cfg = lan_scenario(8, 8, c, "auction", /*seed=*/53);
  cfg.duration = Duration::seconds(30.0);
  const ExperimentResult r = run_scenario(cfg);
  const double g_demand = 8 * 2.0;
  const double goal = core::theory::ideal_good_service_rate(g_demand, 1.0, 1.0, c);
  const double measured = static_cast<double>(r.served_good) / cfg.duration.sec();
  EXPECT_LT(measured, goal * 1.15) << "c=" << c;  // can't beat the goal
  EXPECT_GT(measured, goal * 0.55) << "c=" << c;  // and defends most of it
}

INSTANTIATE_TEST_SUITE_P(
    Capacities, ServiceVsCapacity,
    ::testing::Values(CapacityCase{"half_cid", 16.0}, CapacityCase{"at_cid", 32.0},
                      CapacityCase{"twice_cid", 64.0}, CapacityCase{"huge", 160.0}),
    [](const ::testing::TestParamInfo<CapacityCase>& i) { return i.param.name; });

// ---------------------------------------------------------------------------
// Sweep 4: determinism across every built-in defense (same seed, same numbers).
// ---------------------------------------------------------------------------

class ModeDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(ModeDeterminism, IdenticalSeedsGiveIdenticalRuns) {
  ScenarioConfig cfg = lan_scenario(4, 4, 20.0, GetParam(), /*seed=*/54);
  cfg.duration = Duration::seconds(10.0);
  const ExperimentResult a = run_scenario(cfg);
  const ExperimentResult b = run_scenario(cfg);
  EXPECT_EQ(a.served_total, b.served_total);
  EXPECT_EQ(a.served_good, b.served_good);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.thinner.payment_bytes_total, b.thinner.payment_bytes_total);
}

INSTANTIATE_TEST_SUITE_P(Modes, ModeDeterminism,
                         ::testing::Values("none", "auction", "retry", "quantum"),
                         [](const ::testing::TestParamInfo<std::string>& i) { return i.param; });

}  // namespace
}  // namespace speakup::exp
