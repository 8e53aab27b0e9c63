// Tests for the adversary library: the Strategy interface, the
// StrategyFactory registry (round-trip: a sixth strategy plugs in with no
// harness edits), scenario_io's strategy validation, the built-in
// strategies' behavior, and the determinism contract — onoff/defector runs
// are fingerprint-identical across thread counts.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "client/strategy.hpp"
#include "client/workload_params.hpp"
#include "exp/experiment.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_io.hpp"

namespace speakup {
namespace {

using client::Strategy;
using client::StrategyFactory;
using client::StrategyParams;
using client::StrategyView;

constexpr const char* kBuiltins[] = {"poisson", "onoff", "defector", "adaptive-window",
                                     "flash-crowd", "recon", "switcher"};

StrategyParams params_with(double lambda, int window,
                           std::vector<std::pair<std::string, double>> knobs = {}) {
  StrategyParams p;
  p.lambda = lambda;
  p.window = window;
  p.knobs = std::move(knobs);
  return p;
}

/// A 3-good/3-bad LAN scenario where the bad population runs `strategy`.
exp::ScenarioConfig lan_with_strategy(const std::string& strategy,
                                      std::vector<std::pair<std::string, double>> knobs = {},
                                      const std::string& defense = "auction") {
  exp::ScenarioConfig cfg = exp::lan_scenario(/*good=*/3, /*bad=*/3, /*capacity_rps=*/50.0,
                                              defense, /*seed=*/31);
  cfg.duration = Duration::seconds(4.0);
  cfg.groups[1].workload.strategy = strategy;
  cfg.groups[1].workload.strategy_knobs = std::move(knobs);
  return cfg;
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(StrategyFactory, BuiltinsAreRegistered) {
  for (const char* name : kBuiltins) {
    EXPECT_TRUE(StrategyFactory::instance().contains(name)) << name;
  }
  EXPECT_GE(StrategyFactory::instance().names().size(), 5u);
}

TEST(StrategyFactory, NamesAreSortedAndUnique) {
  const auto names = StrategyFactory::instance().names();
  const std::set<std::string> uniq(names.begin(), names.end());
  EXPECT_EQ(uniq.size(), names.size());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(StrategyFactory, CreateRejectsUnknownNameListingRegistry) {
  try {
    (void)StrategyFactory::instance().create("no-such-strategy", StrategyParams{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const char* name : kBuiltins) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

TEST(StrategyFactory, UnknownKnobThrowsListingKnownOnes) {
  try {
    (void)StrategyFactory::instance().create(
        "onoff", params_with(2.0, 1, {{"perod_s", 5.0}}));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("perod_s"), std::string::npos) << what;
    EXPECT_NE(what.find("period_s"), std::string::npos) << what;
    EXPECT_NE(what.find("duty"), std::string::npos) << what;
  }
}

TEST(StrategyFactory, BadKnobValuesThrow) {
  EXPECT_THROW((void)StrategyFactory::instance().create(
                   "onoff", params_with(2.0, 1, {{"duty", 0.0}})),
               std::invalid_argument);
  EXPECT_THROW((void)StrategyFactory::instance().create(
                   "onoff", params_with(2.0, 1, {{"period_s", -1.0}})),
               std::invalid_argument);
  EXPECT_THROW((void)StrategyFactory::instance().create(
                   "adaptive-window", params_with(2.0, 10, {{"max_window", 5.0}})),
               std::invalid_argument);
  EXPECT_THROW((void)StrategyFactory::instance().create(
                   "flash-crowd", params_with(2.0, 1, {{"surge_factor", 0.0}})),
               std::invalid_argument);
}

TEST(StrategyFactory, DuplicateRegistrationThrows) {
  EXPECT_THROW(StrategyFactory::instance().register_strategy(
                   "poisson",
                   [](const StrategyParams&) -> std::unique_ptr<Strategy> {
                     return nullptr;
                   }),
               std::invalid_argument);
}

// Every registered strategy constructs with default knobs and runs a short
// scenario end to end — conformance for free, like the defense registry.
TEST(StrategyFactory, EveryRegisteredStrategyRunsAScenario) {
  for (const std::string& name : StrategyFactory::instance().names()) {
    const exp::ExperimentResult r = exp::run_scenario(lan_with_strategy(name));
    EXPECT_GT(r.served_total, 0) << name;
    ASSERT_EQ(r.groups.size(), 2u) << name;
    EXPECT_EQ(r.groups[1].strategy, name);
    EXPECT_EQ(r.groups[0].strategy, "poisson") << name;
  }
}

// ---------------------------------------------------------------------------
// The default path is the pre-strategy client, bit for bit.
// ---------------------------------------------------------------------------

TEST(Strategy, DefaultPoissonMatchesExplicitPoissonFingerprint) {
  exp::ScenarioConfig implicit = exp::lan_scenario(3, 3, 50.0, "auction", 17);
  implicit.duration = Duration::seconds(2.0);
  exp::ScenarioConfig explicit_cfg = implicit;
  for (auto& g : explicit_cfg.groups) g.workload.strategy = "poisson";
  EXPECT_EQ(exp::run_scenario(implicit).fingerprint(),
            exp::run_scenario(explicit_cfg).fingerprint());
}

// ---------------------------------------------------------------------------
// A sixth strategy, defined entirely here: fixed-interval (isochronous)
// arrivals. Registering it requires no edit to the client, the experiment
// harness, or scenario_io — that is the point of the registry.
// ---------------------------------------------------------------------------

class MetronomeStrategy final : public Strategy {
 public:
  explicit MetronomeStrategy(StrategyParams p) : Strategy(std::move(p)) {
    params_.require_knobs(name(), {});
  }
  [[nodiscard]] std::string_view name() const override { return "metronome"; }
  [[nodiscard]] Duration next_arrival(util::RngStream& rng,
                                      const StrategyView& v) const override {
    (void)rng;
    (void)v;
    return Duration::seconds(1.0 / params_.lambda);
  }
};

class SixthStrategyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StrategyFactory::instance().register_strategy(
        "metronome", [](const StrategyParams& p) -> std::unique_ptr<Strategy> {
          return std::make_unique<MetronomeStrategy>(p);
        });
  }
  void TearDown() override { StrategyFactory::instance().unregister_strategy("metronome"); }
};

TEST_F(SixthStrategyTest, PlugsInWithoutTouchingTheHarness) {
  const exp::ExperimentResult r = exp::run_scenario(lan_with_strategy("metronome"));
  EXPECT_GT(r.served_total, 0);
  EXPECT_EQ(r.groups[1].strategy, "metronome");
  // Isochronous arrivals at lambda=40 over 4 s: exactly floor(4 * 40) - ish
  // arrivals per client, no randomness. All 3 bad clients tick identically.
  EXPECT_EQ(r.groups[1].totals.arrivals % 3, 0);
}

TEST_F(SixthStrategyTest, ScenarioFilesCanNameIt) {
  const exp::ScenarioFile f = exp::parse_scenario_file(R"({
    "scenarios": [{
      "duration_s": 2, "capacity_rps": 30,
      "groups": [{"label": "g", "count": 2,
                  "workload": {"strategy": "metronome", "lambda": 5}}]
    }]
  })");
  ASSERT_EQ(f.scenarios.size(), 1u);
  EXPECT_EQ(f.scenarios[0].config.groups[0].workload.strategy, "metronome");
  const exp::ExperimentResult r = exp::run_scenario(f.scenarios[0].config);
  EXPECT_GT(r.served_total, 0);
}

// ---------------------------------------------------------------------------
// scenario_io validation: typos fail at load, listing the registry.
// ---------------------------------------------------------------------------

TEST(StrategyScenarioIo, UnknownStrategyNameListsRegisteredStrategies) {
  try {
    (void)exp::parse_scenario_file(R"({
      "scenarios": [{"groups": [{"label": "g", "count": 1,
                                 "workload": {"strategy": "onofff"}}]}]
    })");
    FAIL() << "expected ScenarioError";
  } catch (const exp::ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("onofff"), std::string::npos) << what;
    for (const char* name : kBuiltins) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

TEST(StrategyScenarioIo, UnknownStrategyParamFailsAtParse) {
  try {
    (void)exp::parse_scenario_file(R"({
      "scenarios": [{"groups": [{"label": "g", "count": 1,
                                 "workload": {"strategy": "onoff",
                                              "strategy_params": {"dutyy": 0.5}}}]}]
    })");
    FAIL() << "expected ScenarioError";
  } catch (const exp::ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("dutyy"), std::string::npos) << what;
    EXPECT_NE(what.find("duty"), std::string::npos) << what;
  }
}

TEST(StrategyScenarioIo, ResolveStrategyNameIsStrict) {
  EXPECT_EQ(exp::resolve_strategy_name("poisson"), "poisson");
  EXPECT_EQ(exp::resolve_strategy_name("defector"), "defector");
  EXPECT_THROW((void)exp::resolve_strategy_name("nonesuch"), std::invalid_argument);
}

TEST(StrategyScenarioIo, GridSweepsStrategyKnobsThroughArrayPaths) {
  const exp::ScenarioFile f = exp::parse_scenario_file(R"({
    "defaults": {
      "duration_s": 2,
      "groups": [
        {"label": "good", "count": 1, "workload": "good"},
        {"label": "attack", "count": 1,
         "workload": {"preset": "bad", "strategy": "onoff",
                      "strategy_params": {"period_s": 4, "duty": 0.5}}}
      ]
    },
    "scenarios": [{
      "label": "d{groups.1.workload.strategy_params.duty}",
      "grid": {"groups.1.workload.strategy_params.duty": [0.25, 0.75]}
    }]
  })");
  ASSERT_EQ(f.scenarios.size(), 2u);
  EXPECT_EQ(f.scenarios[0].label, "d0.25");
  EXPECT_EQ(f.scenarios[1].label, "d0.75");
  EXPECT_DOUBLE_EQ(f.scenarios[0].config.groups[1].workload.strategy_knobs[1].second,
                   0.25);
  EXPECT_DOUBLE_EQ(f.scenarios[1].config.groups[1].workload.strategy_knobs[1].second,
                   0.75);
}

// ---------------------------------------------------------------------------
// Built-in behavior.
// ---------------------------------------------------------------------------

TEST(Strategy, OnOffArrivesLessThanPoissonAtTheSameLambda) {
  const exp::ExperimentResult poisson = exp::run_scenario(lan_with_strategy("poisson"));
  const exp::ExperimentResult onoff = exp::run_scenario(
      lan_with_strategy("onoff", {{"period_s", 2.0}, {"duty", 0.25}}));
  // Duty 0.25 passes a quarter of the on-time: far fewer bad arrivals.
  EXPECT_LT(onoff.groups[1].totals.arrivals, poisson.groups[1].totals.arrivals / 2);
  EXPECT_GT(onoff.groups[1].totals.arrivals, 0);
}

TEST(Strategy, OnOffDutyOneIsPoisson) {
  // duty = 1 never leaves the on-phase, so the arrival draws (and hence the
  // whole run) match plain poisson exactly.
  const exp::ExperimentResult a = exp::run_scenario(
      lan_with_strategy("onoff", {{"period_s", 7.0}, {"duty", 1.0}}));
  exp::ScenarioConfig cfg = lan_with_strategy("poisson");
  cfg.groups[1].workload.strategy = "poisson";
  const exp::ExperimentResult b = exp::run_scenario(cfg);
  EXPECT_EQ(a.groups[1].totals.arrivals, b.groups[1].totals.arrivals);
  EXPECT_EQ(a.groups[1].totals.served, b.groups[1].totals.served);
}

TEST(Strategy, DefectorStopsPayingAfterAdmission) {
  const exp::ExperimentResult r = exp::run_scenario(lan_with_strategy("defector"));
  // Each defector pays for its first admission, then refuses every later
  // kPleasePay under the auction defense.
  EXPECT_GT(r.groups[1].totals.served, 0);
  EXPECT_GT(r.groups[1].totals.payments_declined, 0);
  // The compliant good population never declines.
  EXPECT_EQ(r.groups[0].totals.payments_declined, 0);
}

TEST(Strategy, DefectorPatienceAbandonsPaymentsMidWindow) {
  // Low capacity + tiny patience: payments opened by the defectors are
  // abandoned before the auction can resolve.
  exp::ScenarioConfig cfg =
      lan_with_strategy("defector", {{"defect_after_served", 1e9}, {"patience_s", 0.5}});
  cfg.capacity_rps = 5.0;
  const exp::ExperimentResult r = exp::run_scenario(cfg);
  EXPECT_GT(r.groups[1].totals.payments_abandoned, 0);
  EXPECT_EQ(r.groups[0].totals.payments_abandoned, 0);
}

TEST(Strategy, AdaptiveWindowRampsWithDenialRate) {
  client::ClientStats stats;
  auto strat = StrategyFactory::instance().create(
      "adaptive-window", params_with(40.0, 10, {{"max_window", 60.0}, {"gain", 1.0}}));
  StrategyView v;
  v.stats = &stats;
  EXPECT_EQ(strat->window(v), 10);  // nothing resolved yet: base window
  stats.served = 1;
  stats.denied = 0;
  EXPECT_EQ(strat->window(v), 10);  // all served: still base
  stats.denied = 1;                 // 50% denial
  EXPECT_EQ(strat->window(v), 35);
  stats.served = 0;                 // 100% denial: full ramp
  EXPECT_EQ(strat->window(v), 60);
}

// Every member of a group shares one Strategy object, so an answer may
// depend only on the asking member's view: interleaved calls for two
// members must each get the answer their own view implies.
TEST(Strategy, OneSharedInstanceAnswersEachMemberByItsView) {
  const auto recon = StrategyFactory::instance().create(
      "recon", params_with(40.0, 20, {{"probes", 3.0}, {"probe_lambda", 5.0}}));
  client::ClientStats probing;  // no arrival yet: its requests are probes
  client::ClientStats committed;
  committed.arrivals = 7;
  StrategyView a;
  a.stats = &probing;
  StrategyView b;
  b.stats = &committed;
  // The same draw, scaled by the rate each member's view selects.
  const auto gap = [&](const StrategyView& v) {
    util::RngStream r(1, "gap");
    return recon->next_arrival(r, v);
  };
  const auto expected_gap = [](double rate) {
    util::RngStream r(1, "gap");
    return Duration::seconds(r.exponential(rate));
  };
  util::RngStream rng(1, "test");
  for (int round = 0; round < 2; ++round) {
    EXPECT_FALSE(recon->pay(rng, a));
    EXPECT_TRUE(recon->pay(rng, b));
    EXPECT_EQ(gap(a), expected_gap(5.0));   // probe_lambda
    EXPECT_EQ(gap(b), expected_gap(40.0));  // base lambda
  }

  const auto switcher = StrategyFactory::instance().create(
      "switcher", params_with(40.0, 20, {{"min_observations", 5.0}}));
  client::ClientStats defected;  // declined once: the switch has happened
  defected.served = 10;
  defected.payments_declined = 1;
  client::ClientStats starved;
  starved.served = 1;
  starved.denied = 9;
  client::ClientStats healthy;
  healthy.served = 10;
  StrategyView d;
  d.stats = &defected;
  StrategyView s;
  s.stats = &starved;
  StrategyView h;
  h.stats = &healthy;
  for (int round = 0; round < 2; ++round) {
    EXPECT_FALSE(switcher->pay(rng, d));
    EXPECT_FALSE(switcher->pay(rng, s));
    EXPECT_TRUE(switcher->pay(rng, h));
  }
}

TEST(Strategy, FlashCrowdSurgeAddsArrivals) {
  exp::ScenarioConfig quiet = lan_with_strategy("poisson");
  quiet.groups[1].workload.cls = http::ClientClass::kGood;
  quiet.groups[1].workload.lambda = 2.0;
  quiet.groups[1].workload.window = 1;
  exp::ScenarioConfig surging = quiet;
  surging.groups[1].workload.strategy = "flash-crowd";
  surging.groups[1].workload.strategy_knobs = {
      {"surge_start_s", 1.0}, {"surge_duration_s", 2.0}, {"surge_factor", 10.0}};
  const exp::ExperimentResult q = exp::run_scenario(quiet);
  const exp::ExperimentResult s = exp::run_scenario(surging);
  EXPECT_GT(s.groups[1].totals.arrivals, 2 * q.groups[1].totals.arrivals);
}

// ---------------------------------------------------------------------------
// Determinism: adversary runs are fingerprint-identical across thread
// counts (the contract that keeps parallel/sharded sweeps mergeable).
// ---------------------------------------------------------------------------

TEST(StrategyDeterminism, OnOffAndDefectorAreFingerprintIdenticalAcrossThreadCounts) {
  const char* kSweep = R"({
    "defaults": {
      "capacity_rps": 40, "duration_s": 3, "seed": 11,
      "groups": [
        {"label": "good", "count": 2, "workload": "good"},
        {"label": "attack", "count": 2,
         "workload": {"preset": "bad", "strategy": "onoff",
                      "strategy_params": {"period_s": 1, "duty": 0.4}}}
      ]
    },
    "scenarios": [
      {"label": "onoff/{defense}", "grid": {"defense": ["auction", "retry"]}},
      {"label": "defector",
       "groups": [
         {"label": "good", "count": 2, "workload": "good"},
         {"label": "attack", "count": 2,
          "workload": {"preset": "bad", "strategy": "defector",
                       "strategy_params": {"patience_s": 1}}}
       ]}
    ]
  })";
  const exp::ScenarioFile file = exp::parse_scenario_file(kSweep);
  ASSERT_EQ(file.scenarios.size(), 3u);

  exp::Runner serial;
  file.queue_on(serial);
  serial.run_all(1);
  exp::Runner parallel;
  file.queue_on(parallel);
  parallel.run_all(4);

  for (std::size_t i = 0; i < file.scenarios.size(); ++i) {
    const exp::RunOutcome& a = serial.outcomes()[i];
    const exp::RunOutcome& b = parallel.outcomes()[i];
    ASSERT_TRUE(a.ok()) << a.label << ": " << a.error;
    ASSERT_TRUE(b.ok()) << b.label << ": " << b.error;
    EXPECT_EQ(a.result.fingerprint(), b.result.fingerprint()) << a.label;
    EXPECT_GT(a.result.served_total, 0) << a.label;
  }
}

}  // namespace
}  // namespace speakup
