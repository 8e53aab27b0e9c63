// Tests for the data-driven scenario loader: JSON -> LabeledScenario
// expansion (defaults, grids, label templates, seed replication, sharding),
// a full parse -> run -> serialize round trip against hand-built configs,
// and malformed-input errors that name the offending key.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <string>

#include "exp/experiment.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_io.hpp"

namespace speakup {
namespace {

using exp::LabeledScenario;
using exp::ScenarioError;
using exp::ScenarioFile;
using exp::parse_scenario_file;

/// EXPECT that parsing `text` fails and the message mentions `needle`.
void expect_parse_error(const std::string& text, const std::string& needle) {
  try {
    (void)parse_scenario_file(text);
    FAIL() << "expected ScenarioError mentioning \"" << needle << "\"";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(ScenarioIo, MinimalFileUsesConfigDefaults) {
  const ScenarioFile f = parse_scenario_file(R"({
    "scenarios": [{"defense": "retry"}]
  })");
  ASSERT_EQ(f.scenarios.size(), 1u);
  const LabeledScenario& s = f.scenarios[0];
  EXPECT_EQ(s.index, 0u);
  EXPECT_EQ(s.label, "retry");
  EXPECT_EQ(s.config.defense, "retry");
  // Untouched knobs keep the ScenarioConfig defaults.
  const exp::ScenarioConfig defaults;
  EXPECT_DOUBLE_EQ(s.config.capacity_rps, defaults.capacity_rps);
  EXPECT_EQ(s.config.seed, defaults.seed);
  EXPECT_EQ(s.config.duration, defaults.duration);
  EXPECT_TRUE(s.config.groups.empty());
}

TEST(ScenarioIo, DefaultsMergeAndScenarioWins) {
  const ScenarioFile f = parse_scenario_file(R"({
    "defaults": {"capacity_rps": 80, "seed": 9, "lan": {"good": 2, "bad": 3}},
    "scenarios": [
      {"label": "a"},
      {"label": "b", "capacity_rps": 120, "lan": {"good": 4}}
    ]
  })");
  ASSERT_EQ(f.scenarios.size(), 2u);
  EXPECT_DOUBLE_EQ(f.scenarios[0].config.capacity_rps, 80.0);
  EXPECT_EQ(f.scenarios[0].config.seed, 9u);
  ASSERT_EQ(f.scenarios[0].config.groups.size(), 2u);
  EXPECT_EQ(f.scenarios[0].config.groups[0].count, 2);
  EXPECT_EQ(f.scenarios[0].config.groups[1].count, 3);
  // The second scenario's nested "lan" object deep-merges over the default.
  EXPECT_DOUBLE_EQ(f.scenarios[1].config.capacity_rps, 120.0);
  EXPECT_EQ(f.scenarios[1].config.groups[0].count, 4);
  EXPECT_EQ(f.scenarios[1].config.groups[1].count, 3);
}

TEST(ScenarioIo, ExplicitGroupsReplaceLanInheritedFromDefaults) {
  // "lan" and "groups" are alternatives: an entry writing one drops the
  // other inherited from defaults instead of tripping mutual exclusion.
  const ScenarioFile f = parse_scenario_file(R"({
    "defaults": {"lan": {"good": 25, "bad": 25}},
    "scenarios": [
      {"label": "inherited"},
      {"label": "special", "groups": [{"label": "solo", "count": 1}]},
      {"label": "resized", "lan": {"good": 2, "bad": 2}}
    ]
  })");
  ASSERT_EQ(f.scenarios.size(), 3u);
  EXPECT_EQ(f.scenarios[0].config.groups.size(), 2u);
  ASSERT_EQ(f.scenarios[1].config.groups.size(), 1u);
  EXPECT_EQ(f.scenarios[1].config.groups[0].label, "solo");
  ASSERT_EQ(f.scenarios[2].config.groups.size(), 2u);
  EXPECT_EQ(f.scenarios[2].config.groups[0].count, 2);
}

TEST(ScenarioIo, GridExpandsCrossProductInOrder) {
  const ScenarioFile f = parse_scenario_file(R"({
    "scenarios": [{
      "label": "{defense}/c{capacity_rps}",
      "grid": {"defense": ["none", "auction"], "capacity_rps": [50, 100, 200]}
    }]
  })");
  ASSERT_EQ(f.scenarios.size(), 6u);
  // First axis outermost, last cycles fastest; indices follow file order.
  EXPECT_EQ(f.scenarios[0].label, "none/c50");
  EXPECT_EQ(f.scenarios[1].label, "none/c100");
  EXPECT_EQ(f.scenarios[2].label, "none/c200");
  EXPECT_EQ(f.scenarios[3].label, "auction/c50");
  EXPECT_EQ(f.scenarios[5].label, "auction/c200");
  for (std::size_t i = 0; i < f.scenarios.size(); ++i) {
    EXPECT_EQ(f.scenarios[i].index, i);
  }
  EXPECT_DOUBLE_EQ(f.scenarios[4].config.capacity_rps, 100.0);
  EXPECT_EQ(f.scenarios[4].config.defense, "auction");
}

TEST(ScenarioIo, GridReachesNestedPathsAndLanTotal) {
  const ScenarioFile f = parse_scenario_file(R"({
    "defaults": {"lan": {"total": 10, "good": 5}},
    "scenarios": [{
      "label": "g{lan.good}",
      "grid": {"lan.good": [2, 8]}
    }]
  })");
  ASSERT_EQ(f.scenarios.size(), 2u);
  EXPECT_EQ(f.scenarios[0].label, "g2");
  ASSERT_EQ(f.scenarios[0].config.groups.size(), 2u);
  EXPECT_EQ(f.scenarios[0].config.groups[0].count, 2);   // good
  EXPECT_EQ(f.scenarios[0].config.groups[1].count, 8);   // bad = total - good
  EXPECT_EQ(f.scenarios[1].config.groups[0].count, 8);
  EXPECT_EQ(f.scenarios[1].config.groups[1].count, 2);
}

TEST(ScenarioIo, SeedsReplicateWithDerivedLabels) {
  const ScenarioFile f = parse_scenario_file(R"({
    "scenarios": [{"defense": "auction", "seed": 10, "seeds": 3}]
  })");
  ASSERT_EQ(f.scenarios.size(), 3u);
  EXPECT_EQ(f.scenarios[0].label, "auction/seed10");
  EXPECT_EQ(f.scenarios[2].label, "auction/seed12");
  EXPECT_EQ(f.scenarios[0].config.seed, 10u);
  EXPECT_EQ(f.scenarios[2].config.seed, 12u);
}

TEST(ScenarioIo, SeedPlaceholderInLabelSuppressesSuffix) {
  const ScenarioFile f = parse_scenario_file(R"({
    "scenarios": [{"label": "s{seed}", "defense": "none", "seeds": 2}]
  })");
  ASSERT_EQ(f.scenarios.size(), 2u);
  EXPECT_EQ(f.scenarios[0].label, "s1");
  EXPECT_EQ(f.scenarios[1].label, "s2");
}

TEST(ScenarioIo, GroupAndLinkKnobsParse) {
  const ScenarioFile f = parse_scenario_file(R"({
    "scenarios": [{
      "defense": "quantum",
      "quantum_s": 0.02,
      "payment_window_s": 5,
      "response_body_bytes": 500,
      "thinner": {"bw_mbps": 1000, "delay_us": 200, "queue_bytes": 50000},
      "bottleneck": {"rate_mbps": 1, "delay_us": 100000, "queue_bytes": 100000},
      "collateral": {"file_size_bytes": 8000, "downloads": 20},
      "groups": [
        {"label": "good", "count": 3, "workload": "good",
         "access_bw_mbps": 0.5, "behind_bottleneck": true},
        {"label": "attack", "count": 2,
         "workload": {"preset": "bad", "lambda": 10, "post_size_bytes": 2000000}}
      ]
    }]
  })");
  ASSERT_EQ(f.scenarios.size(), 1u);
  const exp::ScenarioConfig& c = f.scenarios[0].config;
  EXPECT_EQ(c.defense, "quantum");
  EXPECT_EQ(c.quantum, Duration::seconds(0.02));
  EXPECT_EQ(c.payment_window, Duration::seconds(5.0));
  EXPECT_EQ(c.response_body, 500);
  EXPECT_EQ(c.thinner_bw, Bandwidth::mbps(1000));
  EXPECT_EQ(c.thinner_delay, Duration::micros(200));
  ASSERT_TRUE(c.bottleneck.has_value());
  EXPECT_EQ(c.bottleneck->rate, Bandwidth::mbps(1));
  ASSERT_TRUE(c.collateral.has_value());
  EXPECT_EQ(c.collateral->file_size, 8000);
  EXPECT_EQ(c.collateral->downloads, 20);
  ASSERT_EQ(c.groups.size(), 2u);
  EXPECT_EQ(c.groups[0].access_bw, Bandwidth::mbps(0.5));
  EXPECT_TRUE(c.groups[0].behind_bottleneck);
  EXPECT_EQ(c.groups[1].workload.cls, http::ClientClass::kBad);
  EXPECT_DOUBLE_EQ(c.groups[1].workload.lambda, 10.0);
  EXPECT_EQ(c.groups[1].workload.post_size, 2'000'000);
  EXPECT_EQ(c.groups[1].workload.window, client::bad_client_params().window);
}

// The retired "engine" key: files written when a group could pick the
// "object" or "pooled" client engine still load, and the value changes
// nothing — every group runs on client::ClientPool.
TEST(ScenarioIo, RetiredEngineKeyIsAcceptedAndIgnored) {
  const auto parse_with = [](const std::string& engine_entry) {
    const ScenarioFile f = parse_scenario_file(R"({"scenarios": [{
      "defense": "auction", "capacity_rps": 20, "duration_s": 1, "seed": 3,
      "groups": [{"label": "g", "count": 3)" + engine_entry + R"(},
                 {"label": "b", "count": 2, "workload": "bad"}]}]})");
    EXPECT_EQ(f.scenarios.size(), 1u);
    return f.scenarios.at(0).config;
  };
  const exp::ScenarioConfig absent = parse_with("");
  const std::uint64_t want = exp::run_scenario(absent).fingerprint();
  for (const std::string engine : {"object", "pooled"}) {
    const exp::ScenarioConfig c = parse_with(R"(, "engine": ")" + engine + "\"");
    ASSERT_EQ(c.groups.size(), absent.groups.size()) << engine;
    EXPECT_EQ(c.groups[0].label, absent.groups[0].label) << engine;
    EXPECT_EQ(c.groups[0].count, absent.groups[0].count) << engine;
    EXPECT_EQ(c.strategy_names(), absent.strategy_names()) << engine;
    EXPECT_EQ(exp::run_scenario(c).fingerprint(), want) << engine;
  }
  expect_parse_error(
      R"({"scenarios": [{"groups": [{"label": "g", "count": 1, "engine": "threaded"}]}]})",
      "groups[0].engine");
}

TEST(ScenarioIo, ShardsPartitionRoundRobin) {
  const ScenarioFile f = parse_scenario_file(R"({
    "scenarios": [{"label": "i{seed}", "defense": "none", "seed": 0, "seeds": 5}]
  })");
  ASSERT_EQ(f.scenarios.size(), 5u);
  const auto s0 = f.shard(0, 2);
  const auto s1 = f.shard(1, 2);
  ASSERT_EQ(s0.size(), 3u);
  ASSERT_EQ(s1.size(), 2u);
  EXPECT_EQ(s0[0].index, 0u);
  EXPECT_EQ(s0[1].index, 2u);
  EXPECT_EQ(s0[2].index, 4u);
  EXPECT_EQ(s1[0].index, 1u);
  EXPECT_EQ(s1[1].index, 3u);
  // Global labels are preserved inside a shard.
  EXPECT_EQ(s1[0].label, "i1");
  EXPECT_THROW((void)f.shard(2, 2), ScenarioError);
  EXPECT_THROW((void)f.shard(-1, 2), ScenarioError);
  EXPECT_THROW((void)f.shard(0, 0), ScenarioError);
}

// The core contract: a parsed scenario runs to the same fingerprint as the
// equivalent hand-built ScenarioConfig.
TEST(ScenarioIo, ParsedScenarioMatchesHandBuiltFingerprint) {
  const ScenarioFile f = parse_scenario_file(R"({
    "scenarios": [{
      "defense": "auction", "capacity_rps": 50, "duration_s": 2, "seed": 17,
      "lan": {"good": 3, "bad": 3}
    }]
  })");
  ASSERT_EQ(f.scenarios.size(), 1u);
  exp::ScenarioConfig hand =
      exp::lan_scenario(3, 3, 50.0, "auction", 17);
  hand.duration = Duration::seconds(2.0);
  const exp::ExperimentResult from_file = exp::run_scenario(f.scenarios[0].config);
  const exp::ExperimentResult from_hand = exp::run_scenario(hand);
  EXPECT_EQ(from_file.fingerprint(), from_hand.fingerprint());
  EXPECT_GT(from_file.served_total, 0);
}

TEST(ScenarioIo, QueueOnRunnerPreservesLabels) {
  const ScenarioFile f = parse_scenario_file(R"({
    "defaults": {"duration_s": 1, "capacity_rps": 30, "lan": {"good": 1, "bad": 1}},
    "scenarios": [{"label": "{defense}", "grid": {"defense": ["none", "retry"]}}]
  })");
  exp::Runner runner;
  f.queue_on(runner);
  runner.run_all(2);
  ASSERT_EQ(runner.outcomes().size(), 2u);
  EXPECT_TRUE(runner.outcome("none").ok()) << runner.outcome("none").error;
  EXPECT_TRUE(runner.outcome("retry").ok()) << runner.outcome("retry").error;
}

// A deadline whose nanoseconds pass int64 used to wrap negative and fail the
// row with "time is before now". It now saturates at the end of the clock,
// so it simply never fires: a client whose mean gap is 1e11 s never sends,
// and a 9e9 s payment window never closes.
TEST(ScenarioIo, DeadlinesPastTheClockNeverFire) {
  const ScenarioFile f = parse_scenario_file(R"({
    "scenarios": [
      {"label": "tiny-lambda", "defense": "none", "duration_s": 60,
       "groups": [{"label": "g", "count": 3, "workload": {"lambda": 1e-11}}]},
      {"label": "long-window", "defense": "auction", "duration_s": 9e9,
       "payment_window_s": 9e9,
       "groups": [{"label": "g", "count": 3, "workload": {"lambda": 1e-9}}]}
    ]
  })");
  exp::Runner runner;
  f.queue_on(runner);
  runner.run_all(1);
  const exp::RunOutcome& tiny = runner.outcome("tiny-lambda");
  ASSERT_TRUE(tiny.ok()) << tiny.error;
  EXPECT_EQ(tiny.result.served_total, 0);
  const exp::RunOutcome& long_window = runner.outcome("long-window");
  EXPECT_TRUE(long_window.ok()) << long_window.error;
}

// ---------------------------------------------------------------------------
// Malformed inputs: every error names the offending key or location.
// ---------------------------------------------------------------------------

TEST(ScenarioIoErrors, UnknownKeysAreNamedWithTheirPath) {
  expect_parse_error(R"({"scenarios": [{"capcity_rps": 100}]})", "capcity_rps");
  expect_parse_error(
      R"({"scenarios": [{"groups": [{"label": "g", "count": 1, "acess_bw_mbps": 2}]}]})",
      "acess_bw_mbps");
  expect_parse_error(R"({"scenarios": [{"lan": {"goood": 1}}]})", "goood");
  expect_parse_error(R"({"scenario": []})", "scenario");
}

TEST(ScenarioIoErrors, UnknownDefenseListsRegisteredNames) {
  try {
    (void)parse_scenario_file(R"({"scenarios": [{"defense": "aucton"}]})");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("aucton"), std::string::npos) << what;
    // The fix-it list: every registered defense is spelled out.
    EXPECT_NE(what.find("auction"), std::string::npos) << what;
    EXPECT_NE(what.find("retry"), std::string::npos) << what;
    EXPECT_NE(what.find("none"), std::string::npos) << what;
    EXPECT_NE(what.find("quantum"), std::string::npos) << what;
  }
}

TEST(ScenarioIoErrors, ResolveDefenseNameIsStrict) {
  EXPECT_EQ(exp::resolve_defense_name("auction"), "auction");
  EXPECT_EQ(exp::resolve_defense_name("none"), "none");
  try {
    (void)exp::resolve_defense_name("nonesuch");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("auction"), std::string::npos) << e.what();
  }
}

TEST(ScenarioIoErrors, ValueErrorsNameTheKey) {
  expect_parse_error(R"({"scenarios": [{"capacity_rps": "fast"}]})", "capacity_rps");
  expect_parse_error(R"({"scenarios": [{"capacity_rps": -5}]})", "capacity_rps");
  expect_parse_error(R"({"scenarios": [{"duration_s": 0}]})", "duration_s");
  expect_parse_error(R"({"scenarios": [{"seed": 1.5}]})", "seed");
  expect_parse_error(R"({"scenarios": [{"groups": [{"count": 1}]}]})", "label");
  expect_parse_error(R"({"scenarios": [{"groups": [{"label": "g"}]}]})", "count");
  expect_parse_error(
      R"({"scenarios": [{"groups": [{"label": "g", "count": 1, "workload": "evil"}]}]})",
      "evil");
}

// Integer keys that land in `int` fields reject values past INT_MAX by
// name instead of wrapping (4294967297 used to run as a 1-client group).
TEST(ScenarioIoErrors, IntFieldsPastIntMaxNameTheKey) {
  const std::string too_big = "4294967297";
  const auto group = [](const std::string& entries) {
    return R"({"scenarios": [{"groups": [{"label": "g", )" + entries + "}]}]}";
  };
  expect_parse_error(group(R"("count": )" + too_big),
                     "count: must be <= 2147483647 (got 4294967297)");
  for (const char* key : {"window", "difficulty", "retry_pipeline"}) {
    expect_parse_error(
        group(R"("count": 1, "workload": {")" + std::string(key) + R"(": )" + too_big + "}"),
        std::string("workload.") + key + ": must be <= 2147483647");
  }
  expect_parse_error(R"({"scenarios": [{"collateral": {"downloads": )" + too_big + "}}]}",
                     "collateral.downloads: must be <= 2147483647");
  for (const char* key : {"good", "bad", "total"}) {
    expect_parse_error(
        R"({"scenarios": [{"lan": {")" + std::string(key) + R"(": )" + too_big + "}}]}",
        std::string("lan.") + key + ": must be <= 2147483647");
  }
  // An integral value past int64 says so rather than "must be an integer".
  expect_parse_error(R"({"scenarios": [{"lan": {"good": 1e20}}]})",
                     "lan.good: must lie within int64 (got 1e+20)");
  // INT_MAX itself still fits.
  const ScenarioFile f = parse_scenario_file(group(R"("count": 2147483647)"));
  EXPECT_EQ(f.scenarios[0].config.groups[0].count, 2147483647);
}

// Link rates and delays that would crash the link model are refused by
// name: a rate that rounds to 0 bit/s or overflows int64 bit/s, and a delay
// whose nanoseconds overflow int64 (9223372036854775 us parses as the
// double 9223372036854776, one microsecond past the limit).
TEST(ScenarioIoErrors, LinkRatesAndDelaysOutOfRangeNameTheKey) {
  const auto scenario = [](const std::string& body) {
    return R"({"scenarios": [{)" + body + "}]}";
  };
  const auto group = [&](const std::string& key, const std::string& value) {
    return scenario(R"("groups": [{"label": "g", "count": 1, ")" + key + R"(": )" + value +
                    "}]");
  };
  const auto object = [&](const std::string& block, const std::string& key,
                          const std::string& value) {
    return scenario(R"(")" + block + R"(": {")" + key + R"(": )" + value + "}");
  };
  const std::string kRoundsToZero = "rounds to 0 bit/s";
  const std::string kRateOverflow = "overflows int64 bit/s";
  const std::string kDelayOverflow = "must be <= 9223372036854775 (got";
  for (const char* tiny : {"1e-9", "4e-7"}) {
    expect_parse_error(group("access_bw_mbps", tiny), "access_bw_mbps: " + kRoundsToZero);
    expect_parse_error(object("collateral", "access_bw_mbps", tiny),
                       "collateral.access_bw_mbps: " + kRoundsToZero);
    expect_parse_error(object("bottleneck", "rate_mbps", tiny),
                       "bottleneck.rate_mbps: " + kRoundsToZero);
    expect_parse_error(object("proxy", "uplink_mbps", tiny), "proxy.uplink_mbps: " + kRoundsToZero);
    expect_parse_error(object("thinner", "bw_mbps", tiny), "thinner.bw_mbps: " + kRoundsToZero);
  }
  for (const char* huge : {"1e300", "9.3e12"}) {
    expect_parse_error(group("access_bw_mbps", huge), "access_bw_mbps: " + kRateOverflow);
    expect_parse_error(object("collateral", "access_bw_mbps", huge),
                       "collateral.access_bw_mbps: " + kRateOverflow);
    expect_parse_error(object("bottleneck", "rate_mbps", huge),
                       "bottleneck.rate_mbps: " + kRateOverflow);
    expect_parse_error(object("proxy", "uplink_mbps", huge), "proxy.uplink_mbps: " + kRateOverflow);
    expect_parse_error(object("thinner", "bw_mbps", huge), "thinner.bw_mbps: " + kRateOverflow);
  }
  for (const char* far : {"9223372036854775", "10000000000000000"}) {
    expect_parse_error(group("access_delay_us", far), "access_delay_us: " + kDelayOverflow);
    expect_parse_error(object("collateral", "access_delay_us", far),
                       "collateral.access_delay_us: " + kDelayOverflow);
    expect_parse_error(object("bottleneck", "delay_us", far), "bottleneck.delay_us: " + kDelayOverflow);
    expect_parse_error(object("proxy", "delay_us", far), "proxy.delay_us: " + kDelayOverflow);
    expect_parse_error(object("thinner", "delay_us", far), "thinner.delay_us: " + kDelayOverflow);
  }
  // The edges that still fit parse to exactly what the link model gets.
  const ScenarioFile f = parse_scenario_file(scenario(
      R"("groups": [{"label": "g", "count": 1, "access_bw_mbps": 5e-7,)"
      R"( "access_delay_us": 9223372036854774}], "bottleneck": {"rate_mbps": 9.2e12}, )"
      R"("thinner": {"delay_us": 0})"));
  EXPECT_EQ(f.scenarios[0].config.groups[0].access_bw.bits_per_sec(), 1);
  EXPECT_EQ(f.scenarios[0].config.groups[0].access_delay.ns(), 9223372036854774000);
  ASSERT_TRUE(f.scenarios[0].config.bottleneck.has_value());
  EXPECT_EQ(f.scenarios[0].config.bottleneck->rate.bits_per_sec(), 9'200'000'000'000'000'000);
}

// Every *_s duration key becomes int64 nanoseconds: a value whose
// nanoseconds reach 2^63 would wrap, and a must-be-positive value that
// rounds to 0 ns would reach the model as zero. Both fail at parse, naming
// the key.
TEST(ScenarioIoErrors, DurationsOutOfRangeNameTheKey) {
  const auto scenario = [](const std::string& body) {
    return R"({"scenarios": [{)" + body + "}]}";
  };
  const auto top = [&](const std::string& key, const std::string& value) {
    return scenario(R"(")" + key + R"(": )" + value);
  };
  const auto workload = [&](const std::string& key, const std::string& value) {
    return scenario(R"("groups": [{"label": "g", "count": 1, "workload": {")" + key +
                    R"(": )" + value + "}}]");
  };
  const auto collateral = [&](const std::string& value) {
    return scenario(R"("collateral": {"start_delay_s": )" + value + "}");
  };
  const std::string kOverflow = "overflows int64 nanoseconds";
  const std::string kRoundsToZero = "rounds to 0 ns";
  const char* top_positive[] = {"duration_s", "payment_window_s", "suspension_limit_s",
                                "elastic_interval_s", "puzzle_cost_s"};
  for (const char* huge : {"1e10", "9.3e9", "1e300"}) {
    for (const char* key : top_positive) {
      expect_parse_error(top(key, huge), std::string(key) + ": " + kOverflow);
    }
    expect_parse_error(top("quantum_s", huge), "quantum_s: " + kOverflow);
    for (const char* key : {"request_timeout_s", "backlog_timeout_s"}) {
      expect_parse_error(workload(key, huge), std::string("workload.") + key + ": " + kOverflow);
    }
    expect_parse_error(collateral(huge), "collateral.start_delay_s: " + kOverflow);
  }
  for (const char* tiny : {"1e-12", "4e-10"}) {
    for (const char* key : top_positive) {
      expect_parse_error(top(key, tiny), std::string(key) + ": " + kRoundsToZero);
    }
    for (const char* key : {"request_timeout_s", "backlog_timeout_s"}) {
      expect_parse_error(workload(key, tiny),
                         std::string("workload.") + key + ": " + kRoundsToZero);
    }
  }
  // The edges that still fit parse to exactly what the model gets; keys
  // that may be 0 accept values that round to 0 ns.
  const ScenarioFile f = parse_scenario_file(scenario(
      R"("duration_s": 9.2e9, "payment_window_s": 5e-10, "quantum_s": 1e-12, )"
      R"("collateral": {"start_delay_s": 1e-12})"));
  EXPECT_EQ(f.scenarios[0].config.duration.ns(), 9'200'000'000'000'000'000);
  EXPECT_EQ(f.scenarios[0].config.payment_window.ns(), 1);
  EXPECT_EQ(f.scenarios[0].config.quantum.ns(), 0);
  ASSERT_TRUE(f.scenarios[0].config.collateral.has_value());
  EXPECT_EQ(f.scenarios[0].config.collateral->start_delay.ns(), 0);
}

TEST(ScenarioIoErrors, StructuralMistakesAreCaught) {
  expect_parse_error(R"({"scenarios": []})", "at least one");
  expect_parse_error(R"({"scenarios": [{"lan": {"good": 1}, "groups": []}]})",
                     "mutually exclusive");
  expect_parse_error(R"({"scenarios": [{"lan": {"good": 5, "total": 3}}]})", "total");
  expect_parse_error(R"({"scenarios": [{"lan": {"bad": 1, "total": 3}}]})",
                     "not both");
  expect_parse_error(R"({"defaults": {"grid": {}}, "scenarios": [{}]})", "grid");
  expect_parse_error(
      R"({"scenarios": [{"label": "x", "defense": "none"}, {"label": "x"}]})",
      "duplicate label");
  expect_parse_error(R"({"scenarios": [{"label": "{oops}"}]})", "oops");
  expect_parse_error(R"({"scenarios": [{"label": "{unclosed"}]})", "unterminated");
  expect_parse_error(R"({"scenarios": [{"grid": {"capacity_rps": []}}]})",
                     "at least one value");
  expect_parse_error(R"({"scenarios": [{"grid": {"capacity_rps": 5}}]})", "array");
}

// An array index past 2^64 - 1 names no element; it must not wrap onto one
// (groups.18446744073709551617 would otherwise sweep group 1).
TEST(ScenarioIoErrors, ArrayIndexPast64BitsNamesTheKey) {
  const std::string groups =
      R"("groups": [{"label": "g", "count": 1, "workload": "good"},)"
      R"( {"label": "b", "count": 1, "workload": {"preset": "bad", "window": 20}}])";
  expect_parse_error(R"({"scenarios": [{)" + groups +
                         R"(, "grid": {"groups.18446744073709551617.workload.window": [5]}}]})",
                     "\"18446744073709551617\" does not index the array");
  expect_parse_error(
      R"({"scenarios": [{)" + groups + R"(, "label": "{groups.18446744073709551617.count}"}]})",
      "placeholder {groups.18446744073709551617.count}");
}

// A grid path runs through objects and arrays only: a scalar on the way,
// an array element as much as an object member, is named with the axis.
TEST(ScenarioIoErrors, GridAxisThroughAScalarNamesTheSegment) {
  expect_parse_error(
      R"({"defaults": {"groups": [5]}, "scenarios": [{"grid": {"groups.0.count": [1, 2]}}]})",
      R"(scenarios[0].grid: grid axis "groups.0.count": "0" is not an object or array)");
  expect_parse_error(
      R"({"defaults": {"groups": [{"label": "g", "count": 1}]},)"
      R"( "scenarios": [{"grid": {"groups.0.count.z": [1, 2]}}]})",
      R"(scenarios[0].grid: grid axis "groups.0.count.z": "count" is not an object or array)");
}

// With labels A, B, B, A the earliest row whose label repeats later is the
// first A, so the diagnostic names "A", not the adjacent pair "B".
TEST(ScenarioIoErrors, DuplicateLabelNamesEarliestRepeatedRow) {
  expect_parse_error(R"({"scenarios": [{"label": "A"}, {"label": "B"}, {"label": "B"}, )"
                     R"({"label": "A"}]})",
                     "duplicate label \"A\"");
}

TEST(ScenarioIoErrors, JsonSyntaxErrorsCarryLineInfo) {
  expect_parse_error("{\"scenarios\": [\n  {,}\n]}", "line 2");
  expect_parse_error("[]", "object");
}

// A file may expand to at most kMaxScenarioRows rows. The count (axis
// lengths times seeds) is checked before any row is built, so an oversized
// grid or seeds count fails at once, naming its key and the count.
TEST(ScenarioIoErrors, OversizedExpansionNamesGridOrSeeds) {
  std::string axis = "[1";
  for (int i = 2; i <= 1000; ++i) axis += ", " + std::to_string(i);
  axis += "]";
  expect_parse_error(R"({"scenarios": [{"grid": {"capacity_rps": )" + axis +
                         R"(, "duration_s": )" + axis + R"(, "seed": )" + axis + "}}]}",
                     "scenarios[0].grid: the file would expand to 1000000000 rows, past the cap "
                     "of 100000");
  expect_parse_error(R"({"scenarios": [{"seeds": 2000000000}]})",
                     "scenarios[0].seeds: must be <= 100000 (got 2000000000)");
  expect_parse_error(
      R"({"scenarios": [{"label": "a"}, {"grid": {"capacity_rps": [1, 2]}, "seeds": 50000}]})",
      "scenarios[1].seeds: the file would expand to 100001 rows, past the cap of 100000");
}

// A rate whose mean gap rounds to 0 ns would never advance the clock.
TEST(ScenarioIoErrors, LambdaPast2e9NamesTheKey) {
  const auto lambda = [](const std::string& value) {
    return R"({"scenarios": [{"groups": [{"label": "g", "count": 1, "workload": {"lambda": )" +
           value + "}}]}]}";
  };
  expect_parse_error(lambda("1e12"),
                     "scenarios[0].groups[0].workload.lambda: must be <= 2e9 (got 1000000000000)");
  EXPECT_EQ(parse_scenario_file(lambda("2e9")).scenarios[0].config.groups[0].workload.lambda, 2e9);
}

// ---------------------------------------------------------------------------
// The checked-in scenario files are part of the contract: they must parse
// and expand to the labels the bench harnesses look up.
// ---------------------------------------------------------------------------

std::string checked_in(const std::string& name) {
  const char* env = std::getenv("SPEAKUP_SCENARIO_DIR");
  const std::string dir = env != nullptr ? env : SPEAKUP_SCENARIO_DIR;
  return dir + "/" + name;
}

TEST(ScenarioFiles, Fig2ExpandsToTheBenchGrid) {
  const ScenarioFile f = exp::load_scenario_file(checked_in("fig2.json"));
  EXPECT_EQ(f.scenarios.size(), 18u);  // 2 defenses x 9 good-counts
  std::set<std::string> labels;
  for (const auto& s : f.scenarios) labels.insert(s.label);
  EXPECT_TRUE(labels.count("none/g5"));
  EXPECT_TRUE(labels.count("auction/g45"));
  for (const auto& s : f.scenarios) {
    EXPECT_DOUBLE_EQ(s.config.capacity_rps, 100.0);
    EXPECT_EQ(s.config.seed, 21u);
    ASSERT_EQ(s.config.groups.size(), 2u);
    EXPECT_EQ(s.config.groups[0].count + s.config.groups[1].count, 50);
  }
}

TEST(ScenarioFiles, Fig4AndSec74ExpandToTheBenchGrids) {
  const ScenarioFile fig4 = exp::load_scenario_file(checked_in("fig4.json"));
  EXPECT_EQ(fig4.scenarios.size(), 3u);
  std::set<std::string> labels;
  for (const auto& s : fig4.scenarios) {
    labels.insert(s.label);
    EXPECT_EQ(s.config.defense, "auction");
    EXPECT_EQ(s.config.seed, 23u);
  }
  EXPECT_TRUE(labels.count("c50"));
  EXPECT_TRUE(labels.count("c200"));

  const ScenarioFile s74 = exp::load_scenario_file(checked_in("sec7_4.json"));
  EXPECT_EQ(s74.scenarios.size(), 13u);  // 7 capacities + 6 bad windows
  labels.clear();
  for (const auto& s : s74.scenarios) labels.insert(s.label);
  EXPECT_TRUE(labels.count("c100"));
  EXPECT_TRUE(labels.count("c160"));
  EXPECT_TRUE(labels.count("w1"));
  EXPECT_TRUE(labels.count("w60"));
  // The window sweep writes through an array-index grid path.
  for (const auto& s : s74.scenarios) {
    if (s.label == "w40") {
      ASSERT_EQ(s.config.groups.size(), 2u);
      EXPECT_EQ(s.config.groups[1].workload.window, 40);
      EXPECT_DOUBLE_EQ(s.config.groups[1].workload.lambda,
                       client::bad_client_params().lambda);
    }
  }
}

TEST(ScenarioFiles, AdversaryFilesSweepEveryDefenseWithTheirStrategy) {
  const struct {
    const char* file;
    const char* strategy;
    std::size_t count;
  } kAdversaryFiles[] = {
      {"adversary_onoff.json", "onoff", 8u},
      {"adversary_defector.json", "defector", 4u},
      {"adversary_adaptive.json", "adaptive-window", 4u},
      {"adversary_flashcrowd.json", "flash-crowd", 4u},
  };
  for (const auto& [name, strategy, count] : kAdversaryFiles) {
    const ScenarioFile f = exp::load_scenario_file(checked_in(name));
    EXPECT_EQ(f.scenarios.size(), count) << name;
    std::set<std::string> defenses;
    for (const auto& s : f.scenarios) {
      defenses.insert(s.config.defense);
      ASSERT_EQ(s.config.groups.size(), 2u) << name;
      EXPECT_EQ(s.config.groups[0].workload.strategy, "poisson") << name;
      EXPECT_EQ(s.config.groups[1].workload.strategy, strategy) << name;
    }
    // Each adversary file sweeps every built-in defense.
    for (const char* defense : {"none", "retry", "auction", "quantum"}) {
      EXPECT_TRUE(defenses.count(defense)) << name << " " << defense;
    }
  }
}

TEST(ScenarioFiles, Fig3AndTab1AndSmokeParse) {
  const ScenarioFile fig3 = exp::load_scenario_file(checked_in("fig3.json"));
  EXPECT_EQ(fig3.scenarios.size(), 6u);
  const ScenarioFile tab1 = exp::load_scenario_file(checked_in("tab1.json"));
  EXPECT_EQ(tab1.scenarios.size(), 7u);  // row1 + 4x row2 + row4 off/on
  std::set<std::string> labels;
  for (const auto& s : tab1.scenarios) labels.insert(s.label);
  EXPECT_TRUE(labels.count("row1"));
  EXPECT_TRUE(labels.count("row2/c155"));
  EXPECT_TRUE(labels.count("row4/on"));
  const ScenarioFile smoke = exp::load_scenario_file(checked_in("smoke.json"));
  EXPECT_EQ(smoke.scenarios.size(), 6u);  // 4 defenses + 2 seed replicas
}

// The optional "report" key names a registered exp/report.hpp reducer; a
// non-string or an unknown name fails at parse, naming the key and listing
// the reducers, so `validate`, `run` and `report` all refuse it.
TEST(ScenarioIoErrors, ReportKeyMustNameARegisteredReducer) {
  const std::string body = R"("scenarios": [{"duration_s": 1}]})";
  EXPECT_EQ(parse_scenario_file(R"({"report": "fig3", )" + body).report, "fig3");
  EXPECT_EQ(parse_scenario_file("{" + body).report, "");
  expect_parse_error(R"({"report": 3, )" + body, "report: expected string, got number");
  expect_parse_error(R"({"report": "fig10", )" + body,
                     "report: unknown report \"fig10\" (known: " + exp::report_names() + ")");
  EXPECT_NE(exp::report_names().find("fig2, fig3"), std::string::npos);
}

/// Writes `text` to a fresh file under the test temp dir; returns its path.
std::string write_spec(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream(path, std::ios::binary) << text;
  return path;
}

/// EXPECT that `load(path)` throws an exception whose message names both
/// the file and `needle`.
template <typename Load>
void expect_spec_error(Load load, const std::string& path, const std::string& needle) {
  try {
    (void)load(path);
    ADD_FAILURE() << "expected an error mentioning \"" << needle << "\"";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

// `validate` and `report` dispatch on the "kind" key; a kind that is not a
// string, or not a known kind, names the file and the key.
TEST(ScenarioIoErrors, FileKindNamesTheKindKey) {
  const std::string bad_type = write_spec("kind_number.json", R"({"kind": 3})");
  expect_spec_error(exp::file_kind, bad_type,
                    "kind: must be \"auction_game\" (got number)");
  const std::string unknown = write_spec("kind_unknown.json", R"({"kind": "sweep"})");
  expect_spec_error(exp::file_kind, unknown, "got \"sweep\"");
  EXPECT_EQ(exp::file_kind(checked_in("abl5.json")), "auction_game");
  EXPECT_EQ(exp::file_kind(checked_in("tournament_small.json")), "tournament");
  EXPECT_EQ(exp::file_kind(checked_in("fig2.json")), "scenarios");
  expect_spec_error(exp::file_kind, write_spec("not_json.json", "{oops"), "line 1");
}

// Auction-game grids: every value the Theorem 3.1 report would assert on or
// narrow is refused at load, naming the key.
TEST(ScenarioIoErrors, AuctionGameValuesOutOfRangeNameTheKey) {
  const auto spec = [](const std::string& seed, const std::string& ticks,
                       const std::string& delta) {
    return R"({"kind": "auction_game", "seed": )" + seed +
           R"(, "stream": "s", "ticks_quick": )" + ticks +
           R"(, "ticks_full": 10, "grid": {"eps": [0.1], "delta": [)" + delta +
           R"(], "adversary": ["single-saver"]}})";
  };
  const auto load = exp::load_auction_game_file;
  expect_spec_error(load, write_spec("ag_delta.json", spec("1", "10", "0.0, 0.7")),
                    "grid.delta: values must lie in [0, 0.5] (got 0.7)");
  expect_spec_error(load, write_spec("ag_delta_neg.json", spec("1", "10", "-0.1")),
                    "grid.delta: values must lie in [0, 0.5] (got -0.1)");
  expect_spec_error(load, write_spec("ag_ticks.json", spec("1", "1e12", "0")),
                    "ticks_quick: must be <= 2147483647 (got 1000000000000)");
  expect_spec_error(load, write_spec("ag_ticks_zero.json", spec("1", "0", "0")),
                    "ticks_quick: must be > 0 (got 0)");
  expect_spec_error(load, write_spec("ag_seed_neg.json", spec("-1", "10", "0")),
                    "seed: must be >= 0 (got -1)");
  expect_spec_error(load, write_spec("ag_seed_frac.json", spec("1.5", "10", "0")),
                    "seed: must be an integer (got 1.5)");
  expect_spec_error(load, write_spec("ag_seed_huge.json", spec("1e20", "10", "0")),
                    "seed: must lie within int64 (got 1e+20)");
  expect_spec_error(load, write_spec("ag_kind.json", R"({"scenarios": []})"),
                    "kind: must be \"auction_game\"");
  const exp::AuctionGameSpec ok =
      load(write_spec("ag_ok.json", spec("7", "2147483647", "0, 0.5")));
  EXPECT_EQ(ok.ticks_quick, 2147483647);
  EXPECT_EQ(ok.delta.back(), 0.5);
}

// JSON numbers are doubles: past 2^53 they skip integers, so the file's
// seed 9007199254740993 reads as 9007199254740992 and two rows labeled
// with different seeds would run the same one. Every way a row gets its
// seed (entry, defaults, grid axis, auction_game file) refuses a seed at or
// past 2^53, naming the key.
TEST(ScenarioIoErrors, SeedAtOrPast2To53NamesTheKey) {
  const std::string kTooBig = "seed: must be < 2^53 = 9007199254740992";
  expect_parse_error(R"({"scenarios": [{"seed": 9007199254740993, "seeds": 2}]})",
                     "scenarios[0]." + kTooBig + " (got 9007199254740992)");
  expect_parse_error(R"({"defaults": {"seed": 9007199254740992}, "scenarios": [{}]})",
                     "scenarios[0]." + kTooBig);
  expect_parse_error(
      R"({"scenarios": [{}, {"label": "{seed}", "grid": {"seed": [1, 9007199254740992]}}]})",
      "scenarios[1]." + kTooBig);
  const std::string game =
      write_spec("ag_seed_2to53.json",
                 R"({"kind": "auction_game", "seed": 9007199254740992, "stream": "s", )"
                 R"("ticks_quick": 1, "ticks_full": 1, "grid": {"eps": [0.1], "delta": [0], )"
                 R"("adversary": ["single-saver"]}})");
  expect_spec_error(exp::load_auction_game_file, game, kTooBig);
  // The largest exact seed still runs under its own label.
  const ScenarioFile f =
      parse_scenario_file(R"({"scenarios": [{"label": "s", "seed": 9007199254740991}]})");
  EXPECT_EQ(f.scenarios[0].config.seed, 9007199254740991U);
}

// A seed range from "seed" through "seed" + "seeds" - 1 must stay below
// 2^53 too, or its last rows would run rounded seeds.
TEST(ScenarioIoErrors, SeedRangePast2To53NamesTheSeedsKey) {
  expect_parse_error(R"({"scenarios": [{"seed": 9007199254740990, "seeds": 3}]})",
                     "scenarios[0].seeds: 3 seeds from 9007199254740990 reach 2^53");
  expect_parse_error(R"({"defaults": {"seed": 9007199254740991}, )"
                     R"("scenarios": [{}, {"label": "x", "seeds": 2}]})",
                     "scenarios[1].seeds");
  const ScenarioFile f = parse_scenario_file(
      R"({"scenarios": [{"label": "s", "seed": 9007199254740990, "seeds": 2}]})");
  ASSERT_EQ(f.scenarios.size(), 2U);
  EXPECT_EQ(f.scenarios[0].label, "s/seed9007199254740990");
  EXPECT_EQ(f.scenarios[1].label, "s/seed9007199254740991");
  EXPECT_EQ(f.scenarios[1].config.seed, 9007199254740991U);
}

// `run`, `dispatch` and `worker` load their file as a scenario file; an
// auction_game grid or a tournament spec names the command that takes it
// instead of reporting its first unknown key.
TEST(ScenarioFiles, SpecFilesNameTheCommandThatTakesThem) {
  expect_spec_error(exp::load_scenario_file, checked_in("abl5.json"),
                    "an auction_game grid spec is not a scenario file (use `speakup report`)");
  expect_spec_error(exp::load_scenario_file, checked_in("tournament_small.json"),
                    "a tournament spec is not a scenario file (use `speakup tournament`)");
}

TEST(ScenarioFiles, MissingFileNamesThePath) {
  try {
    (void)exp::load_scenario_file("/nonexistent/sweep.json");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/sweep.json"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace speakup
