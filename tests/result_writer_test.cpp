// Tests for result persistence: deterministic CSV rows (golden output),
// well-formed JSON, the sharded-merge contract — merging per-shard CSVs
// (and JSON documents) reproduces the unsharded file byte for byte, with
// equal fingerprints — and the resume contract: re-running only the
// missing indices of an interrupted sweep and merging reproduces the
// uninterrupted output byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "exp/result_writer.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_io.hpp"
#include "util/json.hpp"

namespace speakup {
namespace {

using exp::ResultWriter;
using exp::RunOutcome;

namespace json = util::json;

/// A fully deterministic synthetic outcome (no simulation involved).
RunOutcome synthetic_outcome(const std::string& label, std::uint64_t seed) {
  RunOutcome o;
  o.label = label;
  o.config = exp::lan_scenario(2, 2, 100.0, "auction", seed);
  o.config.duration = Duration::seconds(60.0);
  o.result.defense = "auction";
  o.result.served_total = 120;
  o.result.served_good = 90;
  o.result.served_bad = 30;
  o.result.allocation_good = 0.75;
  o.result.allocation_bad = 0.25;
  o.result.fraction_good_served = 0.5;
  o.result.server_busy_fraction = 0.9;
  o.result.sim_duration = Duration::seconds(60.0);
  o.result.events_executed = 1000 + seed;
  o.result.wall_seconds = 1.5;  // nondeterministic in real runs; fixed here
  o.result.groups.resize(2);
  o.result.groups[0].label = "good";
  o.result.groups[0].count = 2;
  o.result.groups[0].totals.served = 90;
  o.result.groups[0].allocation = 0.75;
  o.result.groups[1].label = "bad";
  o.result.groups[1].count = 2;
  o.result.groups[1].totals.served = 30;
  o.result.groups[1].allocation = 0.25;
  return o;
}

TEST(ResultWriter, CsvHeaderAndRowShape) {
  const RunOutcome o = synthetic_outcome("auction/g5", 3);
  const std::string row = ResultWriter::csv_row(7, o);
  // Same number of columns as the header.
  const auto count_fields = [](const std::string& s) {
    std::size_t n = 1;
    for (const char c : s) n += c == ',';
    return n;
  };
  EXPECT_EQ(count_fields(row), count_fields(ResultWriter::csv_header()));
  EXPECT_EQ(row.rfind("7,auction/g5,auction,poisson,3,100,60,120,90,30,0.75,0.25,0,0,0.5,0.9,1003,0,", 0), 0u)
      << row;
  // The fingerprint column holds the result's actual fingerprint as
  // fixed-width hex.
  char expected_fp[17];
  std::snprintf(expected_fp, sizeof expected_fp, "%016llx",
                static_cast<unsigned long long>(o.result.fingerprint()));
  EXPECT_NE(row.find(expected_fp), std::string::npos) << row;
}

TEST(ResultWriter, FailedOutcomeRowIsGolden) {
  RunOutcome o;
  o.label = "broken";
  o.config = exp::lan_scenario(1, 0, 50.0, "retry", 4);
  o.config.duration = Duration::seconds(10.0);
  o.error = "something fell over";
  EXPECT_EQ(ResultWriter::csv_row(2, o),
            "2,broken,retry,poisson,4,50,10,,,,,,,,,,,,,something fell over");
}

TEST(ResultWriter, CsvEscapesDelimitersAndFlattensNewlines) {
  RunOutcome o;
  o.label = "weird,label \"x\"";
  o.config.seed = 1;
  o.error = "line1\nline2";
  const std::string row = ResultWriter::csv_row(0, o);
  EXPECT_NE(row.find("\"weird,label \"\"x\"\"\""), std::string::npos) << row;
  // Rows must never span lines (merge_csv and CSV tooling are line-based),
  // so embedded newlines flatten to spaces.
  EXPECT_EQ(row.find('\n'), std::string::npos) << row;
  EXPECT_NE(row.find("line1 line2"), std::string::npos) << row;
}

// A shard containing a failed scenario must still merge (failure messages
// are the field most likely to carry hostile characters).
TEST(ResultWriter, ShardWithFailedOutcomeStillMerges) {
  ResultWriter ok_shard, bad_shard, all;
  const RunOutcome good = synthetic_outcome("fine", 1);
  RunOutcome bad;
  bad.label = "broken";
  bad.config.seed = 2;
  bad.error = "multi\nline, \"quoted\" error";
  ok_shard.add(0, good);
  bad_shard.add(1, bad);
  all.add(0, good);
  all.add(1, bad);
  std::ostringstream s0, s1, sa;
  ok_shard.write_csv(s0);
  bad_shard.write_csv(s1);
  all.write_csv(sa);
  EXPECT_EQ(ResultWriter::merge_csv({s0.str(), s1.str()}), sa.str());
}

TEST(ResultWriter, WritesRowsSortedByIndex) {
  ResultWriter w;
  w.add(2, synthetic_outcome("c", 3));
  w.add(0, synthetic_outcome("a", 1));
  w.add(1, synthetic_outcome("b", 2));
  std::ostringstream os;
  w.write_csv(os);
  const std::string csv = os.str();
  const std::size_t a = csv.find("\n0,a,");
  const std::size_t b = csv.find("\n1,b,");
  const std::size_t c = csv.find("\n2,c,");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  ASSERT_NE(c, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_THROW(w.add(1, synthetic_outcome("dup", 9)), std::invalid_argument);
}

TEST(ResultWriter, JsonOutputIsWellFormedAndComplete) {
  ResultWriter w;
  w.add(0, synthetic_outcome("auction/g5", 3));
  RunOutcome bad;
  bad.label = "exploded";
  bad.config.seed = 2;
  bad.error = "boom";
  w.add(1, bad);
  std::ostringstream os;
  w.write_json(os);
  const json::Value doc = json::parse(os.str());  // must re-parse cleanly
  EXPECT_EQ(doc.find("result_count")->as_int(), 2);
  const auto& results = doc.find("results")->as_array();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].find("label")->as_string(), "auction/g5");
  EXPECT_EQ(results[0].find("metrics")->find("served_total")->as_int(), 120);
  EXPECT_DOUBLE_EQ(results[0].find("metrics")->find("allocation_good")->as_number(),
                   0.75);
  EXPECT_DOUBLE_EQ(results[0].find("wall_seconds")->as_number(), 1.5);
  ASSERT_EQ(results[0].find("groups")->as_array().size(), 2u);
  EXPECT_EQ(results[1].find("error")->as_string(), "boom");
  EXPECT_EQ(results[1].find("metrics"), nullptr);
}

TEST(ResultWriter, MergeRejectsBadInputs) {
  ResultWriter w0;
  w0.add(0, synthetic_outcome("a", 1));
  std::ostringstream s0;
  w0.write_csv(s0);
  EXPECT_THROW((void)ResultWriter::merge_csv({}), std::invalid_argument);
  EXPECT_THROW((void)ResultWriter::merge_csv({"not,a,speakup,header\n"}),
               std::invalid_argument);
  // Overlapping indices across shards are a hard error.
  EXPECT_THROW((void)ResultWriter::merge_csv({s0.str(), s0.str()}),
               std::invalid_argument);
}

TEST(ResultWriter, MergedSyntheticShardsEqualUnsharded) {
  ResultWriter all, even, odd;
  for (std::size_t i = 0; i < 5; ++i) {
    const RunOutcome o = synthetic_outcome("s" + std::to_string(i), i);
    all.add(i, o);
    (i % 2 == 0 ? even : odd).add(i, o);
  }
  std::ostringstream sa, se, so;
  all.write_csv(sa);
  even.write_csv(se);
  odd.write_csv(so);
  EXPECT_EQ(ResultWriter::merge_csv({se.str(), so.str()}), sa.str());
  // Merge order must not matter.
  EXPECT_EQ(ResultWriter::merge_csv({so.str(), se.str()}), sa.str());
}

// The end-to-end contract behind `speakup run --shard`: really running the
// shards of a scenario file in separate Runners and merging the CSVs gives
// the byte-identical unsharded file — same fingerprints, same everything.
TEST(ResultWriter, ShardedRunMergesToUnshardedBytes) {
  const exp::ScenarioFile file = exp::parse_scenario_file(R"({
    "defaults": {"duration_s": 1, "capacity_rps": 30, "lan": {"good": 1, "bad": 1}},
    "scenarios": [{
      "label": "{defense}/s{seed}",
      "grid": {"defense": ["none", "auction"]},
      "seeds": 2
    }]
  })");
  ASSERT_EQ(file.scenarios.size(), 4u);

  const auto run_slice = [](const std::vector<exp::LabeledScenario>& slice) {
    exp::Runner runner;
    exp::ScenarioFile::queue_on(runner, slice);
    runner.run_all(2);
    ResultWriter w;
    for (std::size_t i = 0; i < slice.size(); ++i) {
      EXPECT_TRUE(runner.outcomes()[i].ok()) << runner.outcomes()[i].error;
      w.add(slice[i].index, runner.outcomes()[i]);
    }
    std::ostringstream os;
    w.write_csv(os);
    return os.str();
  };

  const std::string unsharded = run_slice(file.scenarios);
  const std::string shard0 = run_slice(file.shard(0, 2));
  const std::string shard1 = run_slice(file.shard(1, 2));
  EXPECT_EQ(ResultWriter::merge_csv({shard0, shard1}), unsharded);
}

// ---------------------------------------------------------------------------
// JSON merge (speakup merge --json).
// ---------------------------------------------------------------------------

TEST(ResultWriter, MergedJsonShardsEqualUnsharded) {
  ResultWriter all, even, odd;
  for (std::size_t i = 0; i < 5; ++i) {
    const RunOutcome o = synthetic_outcome("s" + std::to_string(i), i);
    all.add(i, o);
    (i % 2 == 0 ? even : odd).add(i, o);
  }
  std::ostringstream sa, se, so;
  all.write_json(sa);
  even.write_json(se);
  odd.write_json(so);
  // Byte-identical either way round: entries round-trip through the parser
  // (deterministic key order and number formatting).
  EXPECT_EQ(ResultWriter::merge_json({se.str(), so.str()}), sa.str());
  EXPECT_EQ(ResultWriter::merge_json({so.str(), se.str()}), sa.str());
}

TEST(ResultWriter, MergeJsonRejectsBadInputs) {
  ResultWriter w0;
  w0.add(0, synthetic_outcome("a", 1));
  std::ostringstream s0;
  w0.write_json(s0);
  EXPECT_THROW((void)ResultWriter::merge_json({}), std::invalid_argument);
  EXPECT_THROW((void)ResultWriter::merge_json({"not json at all"}),
               std::invalid_argument);
  EXPECT_THROW((void)ResultWriter::merge_json({"{\"foo\": 1}"}), std::invalid_argument);
  // Overlapping indices across shards are a hard error.
  EXPECT_THROW((void)ResultWriter::merge_json({s0.str(), s0.str()}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Resume (speakup run --resume).
// ---------------------------------------------------------------------------

TEST(ResultWriter, ResumeInfoDropsFailedRowsAndKeepsLabels) {
  ResultWriter w;
  w.add(0, synthetic_outcome("ok,with \"quotes\"", 0));
  RunOutcome failed;
  failed.label = "exploded";
  failed.config.seed = 1;
  failed.error = "transient, hopefully";
  w.add(1, failed);
  w.add(2, synthetic_outcome("fine", 2));
  std::ostringstream os;
  w.write_csv(os);

  const ResultWriter::ResumeInfo info = ResultWriter::resume_info(os.str());
  // The failed scenario is not "done": it must be re-run on resume.
  ASSERT_EQ(info.completed.size(), 2u);
  EXPECT_EQ(info.completed[0].first, 0u);
  EXPECT_EQ(info.completed[0].second, "ok,with \"quotes\"");  // quoting round-trips
  EXPECT_EQ(info.completed[1].first, 2u);
  // The completed baseline holds exactly the header + the two ok rows, so
  // merging it with a re-run of index 1 reproduces the full file.
  EXPECT_EQ(ResultWriter::csv_indices(info.completed_csv),
            (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(info.completed_csv.find("exploded"), std::string::npos);
}

// A worker killed mid-write leaves the CSV without a trailing newline; the
// dangling fragment must be re-run, not merged — even when the cut lands
// right after a comma, which makes the fragment end in an "empty error
// column" exactly like a completed row.
TEST(ResultWriter, ResumeInfoDropsTruncatedTrailingRow) {
  ResultWriter w;
  w.add(0, synthetic_outcome("a", 0));
  w.add(1, synthetic_outcome("b", 1));
  std::ostringstream os;
  w.write_csv(os);
  const std::string full = os.str();

  // Cut mid-way through the last row, right after a comma.
  const std::size_t cut = full.find_last_of(',');
  ASSERT_NE(cut, std::string::npos);
  const std::string truncated = full.substr(0, cut + 1);

  const ResultWriter::ResumeInfo info = ResultWriter::resume_info(truncated);
  ASSERT_EQ(info.completed.size(), 1u);
  EXPECT_EQ(info.completed[0].first, 0u);
  // Byte-level: the partial row of index 1 must not leak into the baseline.
  EXPECT_EQ(ResultWriter::csv_indices(info.completed_csv),
            std::vector<std::size_t>{0});
}

// A newline-terminated row with too few columns is corrupt, not completed.
TEST(ResultWriter, ResumeInfoSkipsShortRows) {
  ResultWriter w;
  w.add(0, synthetic_outcome("a", 0));
  std::ostringstream os;
  w.write_csv(os);
  const std::string csv = os.str() + "1,short,auction,7,50,3,\n";
  const ResultWriter::ResumeInfo info = ResultWriter::resume_info(csv);
  ASSERT_EQ(info.completed.size(), 1u);
  EXPECT_EQ(info.completed[0].first, 0u);
}

// A duplicate index means the file was never a write_csv output — refuse to
// resume from it rather than guess which copy to keep.
TEST(ResultWriter, ResumeInfoThrowsOnDuplicateIndex) {
  ResultWriter w;
  w.add(0, synthetic_outcome("a", 0));
  std::ostringstream os;
  w.write_csv(os);
  const std::string full = os.str();
  const std::size_t row_start = full.find('\n') + 1;
  const std::string doubled = full + full.substr(row_start);
  EXPECT_THROW((void)ResultWriter::resume_info(doubled), std::invalid_argument);
}

// The names overload says which input(s) carry a colliding index, and
// whether the duplication is across inputs or inside a single file.
TEST(ResultWriter, MergeDuplicateDiagnosticsNameTheInputs) {
  ResultWriter w;
  w.add(0, synthetic_outcome("a", 0));
  std::ostringstream os;
  w.write_csv(os);
  const std::string shard = os.str();

  try {
    (void)ResultWriter::merge_csv({shard, shard}, {"left.csv", "right.csv"});
    FAIL() << "duplicate index across inputs not rejected";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("left.csv"), std::string::npos) << msg;
    EXPECT_NE(msg.find("right.csv"), std::string::npos) << msg;
  }

  const std::size_t row_start = shard.find('\n') + 1;
  const std::string doubled = shard + shard.substr(row_start);
  try {
    (void)ResultWriter::merge_csv({doubled}, {"self.csv"});
    FAIL() << "duplicate index inside one input not rejected";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("inside 'self.csv'"), std::string::npos) << msg;
  }
}

// A row index past 2^64 - 1 must be refused, not wrapped onto a real index
// (18446744073709551619 would read as 3 and clash with the genuine row 3).
TEST(ResultWriter, RowIndexPast64BitsNamesTheInputAndLine) {
  ResultWriter w;
  w.add(0, synthetic_outcome("a", 0));
  w.add(3, synthetic_outcome("d", 3));
  std::ostringstream os;
  w.write_csv(os);
  const std::string genuine = os.str();
  std::string wrapped = genuine;
  const std::size_t row3 = wrapped.find("\n3,") + 1;
  wrapped.replace(row3, 1, "18446744073709551619");
  try {
    (void)ResultWriter::merge_csv({wrapped, genuine}, {"a.csv", "b.csv"});
    FAIL() << "wrapping row index not rejected";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'a.csv' line 3: row index is too large"), std::string::npos) << msg;
  }
  EXPECT_THROW((void)ResultWriter::csv_indices(wrapped), std::invalid_argument);
}

TEST(ResultWriter, CsvIndicesRoundTrip) {
  ResultWriter w;
  w.add(4, synthetic_outcome("e", 4));
  w.add(0, synthetic_outcome("a", 0));
  w.add(2, synthetic_outcome("c", 2));
  std::ostringstream os;
  w.write_csv(os);
  EXPECT_EQ(ResultWriter::csv_indices(os.str()),
            (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(ResultWriter::csv_indices(ResultWriter::csv_header() + "\n"),
            std::vector<std::size_t>{});
  EXPECT_THROW((void)ResultWriter::csv_indices("garbage\n"), std::invalid_argument);
}

// The contract behind `speakup run --resume`: an interrupted sweep's CSV
// plus a run of only the missing indices merges to the byte-identical
// output of an uninterrupted fresh run.
TEST(ResultWriter, ResumedRunIsByteIdenticalToFreshRun) {
  const exp::ScenarioFile file = exp::parse_scenario_file(R"({
    "defaults": {"duration_s": 1, "capacity_rps": 30, "lan": {"good": 1, "bad": 1}},
    "scenarios": [{
      "label": "{defense}/s{seed}",
      "grid": {"defense": ["none", "retry"]},
      "seeds": 2
    }]
  })");
  ASSERT_EQ(file.scenarios.size(), 4u);

  const auto run_slice = [](const std::vector<exp::LabeledScenario>& slice) {
    exp::Runner runner;
    exp::ScenarioFile::queue_on(runner, slice);
    runner.run_all(2);
    ResultWriter w;
    for (std::size_t i = 0; i < slice.size(); ++i) {
      EXPECT_TRUE(runner.outcomes()[i].ok()) << runner.outcomes()[i].error;
      w.add(slice[i].index, runner.outcomes()[i]);
    }
    std::ostringstream os;
    w.write_csv(os);
    return os.str();
  };

  // The uninterrupted run.
  const std::string fresh = run_slice(file.scenarios);

  // An interrupted run got through indices 0 and 3 only.
  std::vector<exp::LabeledScenario> done{file.scenarios[0], file.scenarios[3]};
  const std::string partial = run_slice(done);

  // Resume: identify the missing indices from the partial CSV, run only
  // those, merge — exactly what `speakup run --resume` does.
  const std::vector<std::size_t> have = ResultWriter::csv_indices(partial);
  EXPECT_EQ(have, (std::vector<std::size_t>{0, 3}));
  std::vector<exp::LabeledScenario> missing;
  for (const exp::LabeledScenario& s : file.scenarios) {
    if (std::find(have.begin(), have.end(), s.index) == have.end()) {
      missing.push_back(s);
    }
  }
  ASSERT_EQ(missing.size(), 2u);
  const std::string resumed = ResultWriter::merge_csv({partial, run_slice(missing)});
  EXPECT_EQ(resumed, fresh);
}

}  // namespace
}  // namespace speakup
