// Tests for the batch Runner: labeling, error capture, and —
// the load-bearing property — parallel run_all() producing results
// bit-identical to serial execution for fixed seeds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace speakup::exp {
namespace {

ScenarioConfig tiny(DefenseMode mode, std::uint64_t seed = 3) {
  ScenarioConfig cfg = lan_scenario(/*good=*/3, /*bad=*/3, /*capacity_rps=*/50.0, mode, seed);
  cfg.duration = Duration::seconds(2.0);
  return cfg;
}

TEST(Runner, DefaultLabelsAreDefenseSlashIndex) {
  Runner r;
  r.add(tiny(DefenseMode::kNone)).add(tiny(DefenseMode::kAuction));
  r.run_all(1);
  EXPECT_EQ(r.outcomes()[0].label, "none/0");
  EXPECT_EQ(r.outcomes()[1].label, "auction/1");
}

TEST(Runner, DuplicateLabelsRejected) {
  Runner r;
  r.add(tiny(DefenseMode::kNone), "x");
  EXPECT_THROW(r.add(tiny(DefenseMode::kAuction), "x"), std::invalid_argument);
}

TEST(Runner, RunAllIsCallableOnce) {
  Runner r;
  r.add(tiny(DefenseMode::kNone));
  r.run_all(1);
  EXPECT_THROW(r.run_all(1), std::invalid_argument);
  EXPECT_THROW(r.add(tiny(DefenseMode::kNone)), std::invalid_argument);
}

TEST(Runner, OutcomesBeforeRunThrow) {
  Runner r;
  r.add(tiny(DefenseMode::kNone));
  EXPECT_THROW((void)r.outcomes(), std::invalid_argument);
}

TEST(Runner, FailedScenarioIsCapturedNotFatal) {
  Runner r;
  ScenarioConfig bad = tiny(DefenseMode::kAuction);
  bad.defense = "no-such-defense";
  r.add(bad, "broken").add(tiny(DefenseMode::kNone), "fine");
  r.run_all(2);
  EXPECT_FALSE(r.outcome("broken").ok());
  EXPECT_NE(r.outcome("broken").error.find("no-such-defense"), std::string::npos);
  EXPECT_TRUE(r.outcome("fine").ok());
  EXPECT_THROW((void)r.result("broken"), std::invalid_argument);
  EXPECT_GT(r.result("fine").served_total, 0);
}

TEST(Runner, UnknownLabelThrows) {
  Runner r;
  r.add(tiny(DefenseMode::kNone), "a");
  r.run_all(1);
  EXPECT_THROW((void)r.outcome("b"), std::invalid_argument);
}

// The acceptance criterion: parallel execution must be bit-identical to
// serial execution for fixed seeds, across every defense mode.
TEST(Runner, ParallelEqualsSerialPerSeed) {
  auto build = [](Runner& r) {
    for (const DefenseMode mode : kAllDefenseModes) {
      r.add(tiny(mode), std::string("m/") + to_string(mode));
    }
    for (std::uint64_t seed = 100; seed < 104; ++seed) {
      r.add(tiny(DefenseMode::kAuction, seed), "sweep/seed" + std::to_string(seed));
    }
  };

  Runner serial;
  build(serial);
  serial.run_all(1);
  Runner parallel;
  build(parallel);
  parallel.run_all(4);

  ASSERT_EQ(serial.outcomes().size(), parallel.outcomes().size());
  for (std::size_t i = 0; i < serial.outcomes().size(); ++i) {
    const RunOutcome& s = serial.outcomes()[i];
    const RunOutcome& p = parallel.outcomes()[i];
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(s.label, p.label);
    EXPECT_EQ(s.result.served_total, p.result.served_total) << s.label;
    EXPECT_EQ(s.result.served_good, p.result.served_good) << s.label;
    EXPECT_EQ(s.result.served_bad, p.result.served_bad) << s.label;
    EXPECT_EQ(s.result.events_executed, p.result.events_executed) << s.label;
    EXPECT_EQ(s.result.thinner.payment_bytes_total, p.result.thinner.payment_bytes_total)
        << s.label;
    // The fingerprint digests every deterministic field, including the
    // per-group and sample-set data.
    EXPECT_EQ(s.result.fingerprint(), p.result.fingerprint()) << s.label;
  }
}

TEST(Runner, FingerprintDistinguishesSeeds) {
  Runner r;
  r.add(tiny(DefenseMode::kAuction, 1), "s1").add(tiny(DefenseMode::kAuction, 2), "s2");
  r.run_all(2);
  EXPECT_NE(r.result("s1").fingerprint(), r.result("s2").fingerprint());
}

TEST(Runner, SummaryTableHasOneRowPerOutcome) {
  Runner r;
  r.add(tiny(DefenseMode::kNone), "a").add(tiny(DefenseMode::kAuction), "b");
  r.run_all(2);
  EXPECT_EQ(r.summary_table().num_rows(), 2u);
}

}  // namespace
}  // namespace speakup::exp
