// Tests for the batch Runner: labeling, error capture, and —
// the load-bearing property — parallel run_all() producing results
// bit-identical to serial execution for fixed seeds.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "exp/result_writer.hpp"
#include "exp/runner.hpp"

namespace speakup::exp {
namespace {

ScenarioConfig tiny(const std::string& defense, std::uint64_t seed = 3) {
  ScenarioConfig cfg = lan_scenario(/*good=*/3, /*bad=*/3, /*capacity_rps=*/50.0, defense, seed);
  cfg.duration = Duration::seconds(2.0);
  return cfg;
}

TEST(Runner, DefaultLabelsAreDefenseSlashIndex) {
  Runner r;
  r.add(tiny("none")).add(tiny("auction"));
  r.run_all(1);
  EXPECT_EQ(r.outcomes()[0].label, "none/0");
  EXPECT_EQ(r.outcomes()[1].label, "auction/1");
}

TEST(Runner, DuplicateLabelsRejected) {
  Runner r;
  r.add(tiny("none"), "x");
  EXPECT_THROW(r.add(tiny("auction"), "x"), std::invalid_argument);
}

TEST(Runner, RunAllIsCallableOnce) {
  Runner r;
  r.add(tiny("none"));
  r.run_all(1);
  EXPECT_THROW(r.run_all(1), std::invalid_argument);
  EXPECT_THROW(r.add(tiny("none")), std::invalid_argument);
}

TEST(Runner, OutcomesBeforeRunThrow) {
  Runner r;
  r.add(tiny("none"));
  EXPECT_THROW((void)r.outcomes(), std::invalid_argument);
}

TEST(Runner, FailedScenarioIsCapturedNotFatal) {
  Runner r;
  ScenarioConfig bad = tiny("auction");
  bad.defense = "no-such-defense";
  r.add(bad, "broken").add(tiny("none"), "fine");
  r.run_all(2);
  EXPECT_FALSE(r.outcome("broken").ok());
  EXPECT_NE(r.outcome("broken").error.find("no-such-defense"), std::string::npos);
  EXPECT_TRUE(r.outcome("fine").ok());
  EXPECT_THROW((void)r.result("broken"), std::invalid_argument);
  EXPECT_GT(r.result("fine").served_total, 0);
}

TEST(Runner, UnknownLabelThrows) {
  Runner r;
  r.add(tiny("none"), "a");
  r.run_all(1);
  EXPECT_THROW((void)r.outcome("b"), std::invalid_argument);
}

// The acceptance criterion: parallel execution must be bit-identical to
// serial execution for fixed seeds, across every built-in defense.
TEST(Runner, ParallelEqualsSerialPerSeed) {
  auto build = [](Runner& r) {
    for (const char* defense : {"none", "auction", "retry", "quantum"}) {
      r.add(tiny(defense), std::string("m/") + defense);
    }
    for (std::uint64_t seed = 100; seed < 104; ++seed) {
      r.add(tiny("auction", seed), "sweep/seed" + std::to_string(seed));
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
  r.add(tiny("auction", 1), "s1").add(tiny("auction", 2), "s2");
  r.run_all(2);
  EXPECT_NE(r.result("s1").fingerprint(), r.result("s2").fingerprint());
}

TEST(Runner, SummaryTableHasOneRowPerOutcome) {
  Runner r;
  r.add(tiny("none"), "a").add(tiny("auction"), "b");
  r.run_all(2);
  std::ostringstream os;
  r.summary_table().print(os);
  // Header, rule, then one row per outcome in insertion order.
  std::istringstream lines(os.str());
  std::vector<std::string> rows;
  for (std::string line; std::getline(lines, line);) rows.push_back(line);
  ASSERT_EQ(rows.size(), 4u) << os.str();
  EXPECT_EQ(rows[2].rfind("a ", 0), 0u) << rows[2];
  EXPECT_EQ(rows[3].rfind("b ", 0), 0u) << rows[3];
}

// Queueing a sweep costs O(1) per row: 20000 distinct rows go onto a Runner
// and a ResultWriter, unrun, in well under 2 s (a quadratic duplicate check
// takes several times that), and both duplicate checks still fire.
TEST(Runner, QueueingTwentyThousandRowsIsLinear) {
  const auto start = std::chrono::steady_clock::now();
  const ScenarioConfig cfg = tiny("none");
  Runner r;
  ResultWriter w;
  RunOutcome o;
  o.config = cfg;
  for (std::size_t i = 0; i < 20000; ++i) {
    o.label = "row" + std::to_string(i);
    r.add(cfg, o.label);
    w.add(i, o);
  }
  const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
  EXPECT_LT(took.count(), 2.0);
  EXPECT_EQ(w.size(), 20000u);
  try {
    r.add(cfg, "row7");
    FAIL() << "duplicate label not rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "speakup: Runner: duplicate label 'row7'");
  }
  try {
    w.add(7, o);
    FAIL() << "duplicate index not rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "ResultWriter: duplicate scenario index 7");
  }
}

}  // namespace
}  // namespace speakup::exp
