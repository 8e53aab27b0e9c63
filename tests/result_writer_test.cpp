// Tests for result persistence: deterministic CSV rows and records blocks
// (golden output), the sharded-merge contract — merging per-shard CSVs and
// records files reproduces the unsharded files byte for byte, with equal
// fingerprints — and the resume contract: re-running only the indices an
// interrupted sweep left incomplete in either file and merging reproduces
// the uninterrupted output byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "exp/result_writer.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_io.hpp"

namespace speakup {
namespace {

using exp::ResultWriter;
using exp::RunOutcome;

/// A writer's two files, as a sweep writes them.
struct Files {
  std::string csv;
  std::string records;
  bool operator==(const Files&) const = default;
};

Files files_of(const ResultWriter& w) {
  std::ostringstream csv;
  std::ostringstream records;
  w.write_csv(csv);
  w.write_records(records);
  return {csv.str(), records.str()};
}

/// Runs a slice of a scenario file as `speakup run` would and returns its
/// files.
Files run_slice(const std::vector<exp::LabeledScenario>& slice) {
  exp::Runner runner;
  exp::ScenarioFile::queue_on(runner, slice);
  runner.run_all(2);
  ResultWriter w;
  for (std::size_t i = 0; i < slice.size(); ++i) {
    EXPECT_TRUE(runner.outcomes()[i].ok()) << runner.outcomes()[i].error;
    w.add(slice[i].index, runner.outcomes()[i]);
  }
  return files_of(w);
}

/// Both files merged, as `speakup merge` does.
Files merge(const std::vector<Files>& shards) {
  std::vector<std::string> csvs;
  std::vector<std::string> records;
  for (const Files& f : shards) {
    csvs.push_back(f.csv);
    records.push_back(f.records);
  }
  return {ResultWriter::merge_csv(csvs), ResultWriter::merge_csv(records)};
}

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

// The records block: a group count, then five metrics per group in
// scenario-file order; a failed outcome has none.
TEST(ResultWriter, RecordsBlockIsGolden) {
  RunOutcome o = synthetic_outcome("auction/g5", 3);
  o.result.groups[1].totals.denied = 4;
  o.result.groups[1].totals.payments_declined = 2;
  o.result.groups[1].totals.payments_abandoned = 1;
  EXPECT_EQ(ResultWriter::records_block(7, o),
            "7,groups,2\n"
            "7,groups.0.served,90\n"
            "7,groups.0.denied,0\n"
            "7,groups.0.payments_declined,0\n"
            "7,groups.0.payments_abandoned,0\n"
            "7,groups.0.allocation,0.75\n"
            "7,groups.1.served,30\n"
            "7,groups.1.denied,4\n"
            "7,groups.1.payments_declined,2\n"
            "7,groups.1.payments_abandoned,1\n"
            "7,groups.1.allocation,0.25\n");
  RunOutcome bad;
  bad.error = "boom";
  EXPECT_EQ(ResultWriter::records_block(1, bad), "");

  ResultWriter w;
  w.add(1, bad);
  w.add(7, o);
  std::ostringstream os;
  w.write_records(os);
  EXPECT_EQ(os.str(), "index,metric,value\n" + ResultWriter::records_block(7, o));
}

TEST(ResultWriter, RecordsPathSitsBesideTheCsv) {
  EXPECT_EQ(ResultWriter::records_path("out/results.csv"), "out/results.records.csv");
  EXPECT_EQ(ResultWriter::records_path("results"), "results.records.csv");
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
// shards of a scenario file in separate Runners and merging the CSVs and
// the records files gives the byte-identical unsharded files, in either
// order — same fingerprints, same everything.
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

  const Files unsharded = run_slice(file.scenarios);
  const Files shard0 = run_slice(file.shard(0, 2));
  const Files shard1 = run_slice(file.shard(1, 2));
  EXPECT_EQ(merge({shard0, shard1}), unsharded);
  EXPECT_EQ(merge({shard1, shard0}), unsharded);
  // Two groups per row: a count line and five metrics each.
  EXPECT_EQ(std::count(unsharded.records.begin(), unsharded.records.end(), '\n'), 1 + 4 * 11);
}

// A records index present in two inputs is rejected, naming both files.
TEST(ResultWriter, MergeRejectsARecordsIndexInTwoInputs) {
  ResultWriter w;
  w.add(0, synthetic_outcome("a", 0));
  const std::string records = files_of(w).records;
  try {
    (void)ResultWriter::merge_csv({records, records}, {"s0.records.csv", "s1.records.csv"});
    FAIL() << "duplicate records index across inputs not rejected";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("scenario index 0 appears in both 's0.records.csv' and "
                       "'s1.records.csv'"),
              std::string::npos)
        << msg;
  }
  // A results CSV and a records file are not one kind of input.
  EXPECT_THROW((void)ResultWriter::merge_csv({records, files_of(w).csv}),
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
  const Files files = files_of(w);

  const ResultWriter::ResumeInfo info = ResultWriter::resume_info(files.csv, files.records);
  // The failed scenario is not "done": it must be re-run on resume.
  ASSERT_EQ(info.completed.size(), 2u);
  EXPECT_EQ(info.completed[0].first, 0u);
  EXPECT_EQ(info.completed[0].second, "ok,with \"quotes\"");  // quoting round-trips
  EXPECT_EQ(info.completed[1].first, 2u);
  // The completed baselines hold exactly the two ok rows, so merging them
  // with a re-run of index 1 reproduces the full files.
  ResultWriter ok_rows;
  ok_rows.add(0, synthetic_outcome("ok,with \"quotes\"", 0));
  ok_rows.add(2, synthetic_outcome("fine", 2));
  EXPECT_EQ((Files{info.completed_csv, info.completed_records}), files_of(ok_rows));

  // Without its records file no row counts as completed.
  EXPECT_TRUE(ResultWriter::resume_info(files.csv, "").completed.empty());
}

// A worker killed mid-write leaves the CSV without a trailing newline; the
// dangling fragment must be re-run, not merged — even when the cut lands
// right after a comma, which makes the fragment end in an "empty error
// column" exactly like a completed row.
TEST(ResultWriter, ResumeInfoDropsTruncatedTrailingRow) {
  ResultWriter w;
  w.add(0, synthetic_outcome("a", 0));
  w.add(1, synthetic_outcome("b", 1));
  const Files files = files_of(w);

  // Cut mid-way through the last row, right after a comma.
  const std::size_t cut = files.csv.find_last_of(',');
  ASSERT_NE(cut, std::string::npos);
  const std::string truncated = files.csv.substr(0, cut + 1);

  const ResultWriter::ResumeInfo info = ResultWriter::resume_info(truncated, files.records);
  ASSERT_EQ(info.completed.size(), 1u);
  EXPECT_EQ(info.completed[0].first, 0u);
  // Byte-level: the partial row of index 1 must not leak into either
  // baseline.
  EXPECT_EQ(ResultWriter::csv_indices(info.completed_csv), std::vector<std::size_t>{0});
  EXPECT_EQ(info.completed_records.find("\n1,"), std::string::npos);
}

// A newline-terminated row with too few columns is corrupt, not completed.
TEST(ResultWriter, ResumeInfoSkipsShortRows) {
  ResultWriter w;
  w.add(0, synthetic_outcome("a", 0));
  const Files files = files_of(w);
  const std::string csv = files.csv + "1,short,auction,7,50,3,\n";
  const ResultWriter::ResumeInfo info =
      ResultWriter::resume_info(csv, files.records + "1,groups,0\n");
  ASSERT_EQ(info.completed.size(), 1u);
  EXPECT_EQ(info.completed[0].first, 0u);
}

// A duplicate index means the file was never a write_csv / write_records
// output — refuse to resume from it rather than guess which copy to keep.
TEST(ResultWriter, ResumeInfoThrowsOnDuplicateIndex) {
  const RunOutcome a = synthetic_outcome("a", 0);
  ResultWriter w;
  w.add(0, a);
  w.add(1, synthetic_outcome("b", 1));
  const Files files = files_of(w);
  EXPECT_THROW((void)ResultWriter::resume_info(files.csv + ResultWriter::csv_row(0, a) + "\n",
                                               files.records),
               std::invalid_argument);
  EXPECT_THROW((void)ResultWriter::resume_info(files.csv,
                                               files.records + ResultWriter::records_block(0, a)),
               std::invalid_argument);
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

/// What `speakup run --resume` does with an interrupted sweep's files: run
/// only the rows not completed in both, and merge. `rerun` receives the
/// indices that ran.
Files resume(const exp::ScenarioFile& file, const Files& existing,
             std::vector<std::size_t>& rerun) {
  const ResultWriter::ResumeInfo info = ResultWriter::resume_info(existing.csv, existing.records);
  std::vector<bool> done(file.scenarios.size(), false);
  for (const auto& [index, label] : info.completed) done[index] = true;
  std::vector<exp::LabeledScenario> missing;
  rerun.clear();
  for (const exp::LabeledScenario& s : file.scenarios) {
    if (done[s.index]) continue;
    missing.push_back(s);
    rerun.push_back(s.index);
  }
  return merge({Files{info.completed_csv, info.completed_records}, run_slice(missing)});
}

const char* const kResumeFile = R"({
    "defaults": {"duration_s": 1, "capacity_rps": 30, "lan": {"good": 1, "bad": 1}},
    "scenarios": [{
      "label": "{defense}/s{seed}",
      "grid": {"defense": ["none", "retry"]},
      "seeds": 2
    }]
  })";

// The contract behind `speakup run --resume`: an interrupted sweep's files
// plus a run of only the missing indices merge to the byte-identical output
// of an uninterrupted fresh run.
TEST(ResultWriter, ResumedRunIsByteIdenticalToFreshRun) {
  const exp::ScenarioFile file = exp::parse_scenario_file(kResumeFile);
  ASSERT_EQ(file.scenarios.size(), 4u);
  const Files fresh = run_slice(file.scenarios);

  // An interrupted run got through indices 0 and 3 only.
  const Files partial = run_slice({file.scenarios[0], file.scenarios[3]});
  std::vector<std::size_t> rerun;
  EXPECT_EQ(resume(file, partial, rerun), fresh);
  EXPECT_EQ(rerun, (std::vector<std::size_t>{1, 2}));
}

// A records file cut anywhere inside its last block — mid-line or at a line
// boundary — leaves that row incomplete: resume re-runs exactly that row and
// reproduces the fresh files.
TEST(ResultWriter, ResumeReRunsARowWhoseRecordsBlockIsTruncated) {
  const exp::ScenarioFile file = exp::parse_scenario_file(kResumeFile);
  const Files fresh = run_slice(file.scenarios);
  const std::size_t last_block = fresh.records.rfind("\n3,groups,") + 1;
  ASSERT_NE(last_block, 0u);
  // The re-run of the last row is deterministic; run it once.
  const Files last_row = run_slice({file.scenarios[3]});
  for (std::size_t cut = last_block; cut < fresh.records.size(); ++cut) {
    const Files existing{fresh.csv, fresh.records.substr(0, cut)};
    const ResultWriter::ResumeInfo info =
        ResultWriter::resume_info(existing.csv, existing.records);
    ASSERT_EQ(info.completed.size(), 3u) << "cut at byte " << cut;
    EXPECT_EQ(info.completed.back().first, 2u) << "cut at byte " << cut;
    EXPECT_EQ(merge({Files{info.completed_csv, info.completed_records}, last_row}), fresh)
        << "cut at byte " << cut;
  }
  // The full run through the same path, for one cut at a line boundary.
  const std::size_t boundary = fresh.records.find('\n', last_block) + 1;
  std::vector<std::size_t> rerun;
  EXPECT_EQ(resume(file, Files{fresh.csv, fresh.records.substr(0, boundary)}, rerun), fresh);
  EXPECT_EQ(rerun, std::vector<std::size_t>{3});
}

}  // namespace
}  // namespace speakup
