// Differential/property battery for the adversarial tournament additions:
// the "elastic" and "puzzle" front ends and the "recon" and "switcher"
// attacker strategies. The load-bearing checks are differential — a new
// component configured to be inert must reproduce an existing baseline
// bit-for-bit (same ExperimentResult fingerprint), so the new code paths
// provably cost nothing when disabled — plus the §7.4 ordering regression:
// against defectors, the auction must serve good clients at least as well
// as the retry thinner.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "client/strategy.hpp"
#include "core/elastic_front_end.hpp"
#include "core/puzzle_front_end.hpp"
#include "exp/experiment.hpp"
#include "exp/scenario.hpp"

namespace speakup {
namespace {

/// The tournament_small.json base, in C++: 5 good clients (10 rps demand,
/// 2 s patience) against 5 attackers on a 6 rps server — overloaded enough
/// that defenses are rationed and differences show.
exp::ScenarioConfig overload_lan(const std::string& defense,
                                 const std::string& bad_strategy,
                                 std::vector<std::pair<std::string, double>> knobs = {}) {
  exp::ScenarioConfig cfg = exp::lan_scenario(/*good=*/5, /*bad=*/5, /*capacity_rps=*/6.0,
                                              defense, /*seed=*/42);
  cfg.duration = Duration::seconds(6.0);
  cfg.elastic_interval = Duration::seconds(1.0);
  cfg.groups[0].workload.request_timeout = Duration::seconds(2.0);
  cfg.groups[1].workload.strategy = bad_strategy;
  cfg.groups[1].workload.strategy_knobs = std::move(knobs);
  return cfg;
}

// ---------------------------------------------------------------------------
// Differential: inert configurations reproduce their baselines exactly.
// ---------------------------------------------------------------------------

// "elastic" with max_scale <= 1 can never re-provision, so it must not even
// arm its monitor timer: apart from the defense's name, the run is
// bit-for-bit the "none" run — same event count, same fingerprint.
TEST(AdversarialDifferential, ElasticAtUnitScaleIsRowIdenticalToNone) {
  const exp::ExperimentResult none = exp::run_scenario(overload_lan("none", "poisson"));

  exp::ScenarioConfig cfg = overload_lan("elastic", "poisson");
  cfg.elastic_max_scale = 1.0;
  exp::ExperimentResult elastic = exp::run_scenario(cfg);

  EXPECT_EQ(elastic.events_executed, none.events_executed);
  EXPECT_EQ(elastic.defense, "elastic");
  elastic.defense = none.defense;  // the one intended difference
  EXPECT_EQ(elastic.fingerprint(), none.fingerprint());
}

// "recon" with a zero probe budget never probes and always pays: identical
// draws, identical decisions, identical dynamics to "poisson". The
// fingerprint hashes the group's strategy name, so that one intended
// difference is renamed away before comparing.
TEST(AdversarialDifferential, ReconWithZeroProbeBudgetMatchesPoissonBitForBit) {
  const exp::ExperimentResult poisson =
      exp::run_scenario(overload_lan("auction", "poisson"));
  exp::ExperimentResult recon =
      exp::run_scenario(overload_lan("auction", "recon", {{"probes", 0.0}}));
  EXPECT_EQ(recon.events_executed, poisson.events_executed);
  ASSERT_EQ(recon.groups.size(), 2u);
  EXPECT_EQ(recon.groups[1].strategy, "recon");
  recon.groups[1].strategy = "poisson";  // the one intended difference
  EXPECT_EQ(recon.fingerprint(), poisson.fingerprint());
}

// With a real probe budget the attacker refuses its early payment requests,
// which both changes the run and shows up as declined payments.
TEST(AdversarialDifferential, ReconProbingRefusesEarlyPayments) {
  const exp::ExperimentResult poisson =
      exp::run_scenario(overload_lan("auction", "poisson"));
  const exp::ExperimentResult recon =
      exp::run_scenario(overload_lan("auction", "recon", {{"probes", 50.0}}));
  EXPECT_NE(recon.fingerprint(), poisson.fingerprint());
  ASSERT_EQ(recon.groups.size(), 2u);
  EXPECT_GT(recon.groups[1].totals.payments_declined, 0);
}

// ---------------------------------------------------------------------------
// Behavior of the new defenses.
// ---------------------------------------------------------------------------

TEST(AdversarialBehavior, ElasticScalesUpUnderOverloadAndServesMoreThanNone) {
  const exp::ExperimentResult none = exp::run_scenario(overload_lan("none", "poisson"));

  exp::Experiment ex(overload_lan("elastic", "poisson"));
  const exp::ExperimentResult elastic = ex.run();
  auto* fe = dynamic_cast<core::ElasticFrontEnd*>(ex.front_end());
  ASSERT_NE(fe, nullptr);
  EXPECT_GT(fe->scale(), 1.0);
  EXPECT_LE(fe->scale(), 4.0);
  EXPECT_GE(elastic.thinner.counters.get("elastic_scale_ups"), 1);
  // Quadrupled capacity must not serve a smaller share of the good demand.
  EXPECT_GE(elastic.fraction_good_served, none.fraction_good_served);
  EXPECT_GT(elastic.served_total, none.served_total);
}

TEST(AdversarialBehavior, ElasticRejectsNonsenseKnobs) {
  exp::ScenarioConfig shrink = overload_lan("elastic", "poisson");
  shrink.elastic_max_scale = 0.5;  // a "scale-up" below 1x is a config bug
  EXPECT_THROW((void)exp::run_scenario(shrink), std::invalid_argument);

  exp::ScenarioConfig hair_trigger = overload_lan("elastic", "poisson");
  hair_trigger.elastic_threshold = 0.0;  // would scale on a fully idle server
  EXPECT_THROW((void)exp::run_scenario(hair_trigger), std::invalid_argument);
}

TEST(AdversarialBehavior, PuzzleFrontEndSolvesPuzzlesAndStaysDeterministic) {
  exp::ScenarioConfig cfg = overload_lan("puzzle", "poisson");
  cfg.puzzle_cost = Duration::seconds(0.5);
  const exp::ExperimentResult a = exp::run_scenario(cfg);
  EXPECT_GT(a.served_total, 0);
  EXPECT_GT(a.thinner.counters.get("puzzle_solved"), 0);
  EXPECT_GT(a.thinner.counters.get("puzzle_admitted"), 0);
  // Same scenario, same seed: bit-identical.
  const exp::ExperimentResult b = exp::run_scenario(cfg);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

// A costlier puzzle currency throttles harder: the attacker's per-request
// solve time scales with difficulty, so raising the cost cannot increase
// the total served.
TEST(AdversarialBehavior, RaisingPuzzleCostDoesNotServeMore) {
  exp::ScenarioConfig cheap = overload_lan("puzzle", "poisson");
  cheap.puzzle_cost = Duration::seconds(0.1);
  exp::ScenarioConfig dear = overload_lan("puzzle", "poisson");
  dear.puzzle_cost = Duration::seconds(3.0);
  const exp::ExperimentResult a = exp::run_scenario(cheap);
  const exp::ExperimentResult b = exp::run_scenario(dear);
  EXPECT_GE(a.served_total, b.served_total);
}

// ---------------------------------------------------------------------------
// Behavior of the new strategies (strategy-level, no scenario needed).
// ---------------------------------------------------------------------------

TEST(AdversarialBehavior, SwitcherDefectsOnLowAdmissionRateAndStaysDefected) {
  client::StrategyParams p;
  auto s = client::StrategyFactory::instance().create("switcher", p);
  util::RngStream rng(1, "test");

  // Starved: 40 resolved, 1 served -> fraction 0.025 < 0.2 -> defect.
  client::ClientStats starved;
  starved.served = 1;
  starved.denied = 39;
  client::StrategyView v;
  v.stats = &starved;
  EXPECT_FALSE(s->pay(rng, v));

  // Sticky: once defected, a rosier view does not win it back. The pool
  // counts that refusal in the member's stats, which is where the switcher
  // reads that it has defected.
  client::ClientStats healthy;
  healthy.served = 40;
  healthy.payments_declined = 1;
  v.stats = &healthy;
  EXPECT_FALSE(s->pay(rng, v));

  // A fresh switcher with a healthy admission rate keeps paying.
  auto fresh = client::StrategyFactory::instance().create("switcher", p);
  healthy.payments_declined = 0;
  EXPECT_TRUE(fresh->pay(rng, v));

  // Too few observations to judge: keeps paying.
  client::ClientStats early;
  early.served = 1;
  early.denied = 2;
  v.stats = &early;
  auto cautious = client::StrategyFactory::instance().create("switcher", p);
  EXPECT_TRUE(cautious->pay(rng, v));
}

TEST(AdversarialBehavior, SwitcherDefectsInsideAStarvedAuctionRun) {
  // Impatient attackers on an overloaded auction see most requests time out
  // (denied); the switcher reads that admission rate as detection and stops
  // buying in, while poisson keeps paying to the end.
  exp::ScenarioConfig cfg = overload_lan(
      "auction", "switcher", {{"min_observations", 5.0}, {"served_threshold", 0.9}});
  cfg.groups[1].workload.request_timeout = Duration::seconds(0.5);
  exp::ScenarioConfig base = cfg;
  base.groups[1].workload.strategy = "poisson";
  base.groups[1].workload.strategy_knobs.clear();
  const exp::ExperimentResult switcher = exp::run_scenario(cfg);
  const exp::ExperimentResult poisson = exp::run_scenario(base);
  ASSERT_EQ(switcher.groups.size(), 2u);
  EXPECT_GT(switcher.groups[1].totals.payments_declined, 0);
  EXPECT_EQ(poisson.groups[1].totals.payments_declined, 0);
}

// ---------------------------------------------------------------------------
// §7.4 regression: gaming the thinner.
// ---------------------------------------------------------------------------

// The paper's argument for charging in bandwidth up front: against clients
// who defect instead of paying, the auction serves the good population at
// least as well as the retry thinner does.
TEST(AdversarialRegression, AuctionServesGoodAtLeastAsWellAsRetryAgainstDefectors) {
  const exp::ExperimentResult auction =
      exp::run_scenario(overload_lan("auction", "defector"));
  const exp::ExperimentResult retry =
      exp::run_scenario(overload_lan("retry", "defector"));
  EXPECT_GE(auction.fraction_good_served, retry.fraction_good_served);
}

}  // namespace
}  // namespace speakup
