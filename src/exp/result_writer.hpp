// Result persistence: serialize Runner outcomes so sweeps are diffable
// across PRs and mergeable across processes.
//
// A sweep writes two files: the results CSV (one row per scenario) and,
// beside it, the records file (records_path: X.csv -> X.records.csv) in
// long form, `index,metric,value`, holding the per-group breakdowns. Both
// are keyed by the scenario's global expansion index (its coordinate in
// the scenario file); both are sorted by index, and every field is
// deterministic (wall_seconds is in neither), so
//
//   run --shard 0/2 + run --shard 1/2 + merge  ==  run unsharded
//
// byte for byte, for each file. Both formats are a header line followed by
// index-keyed blocks, so one merge (merge_csv) and one resume rule
// (resume_info) serve both; result_writer_test.cpp enforces the identities.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "exp/runner.hpp"

namespace speakup::exp {

class ResultWriter {
 public:
  /// The CSV header row (no newline). Stable: downstream tooling and
  /// sharded merges key on it.
  [[nodiscard]] static const std::string& csv_header();

  /// The records file header row (no newline): "index,metric,value".
  [[nodiscard]] static const std::string& records_header();

  /// The records file that rides beside the results CSV `csv_path`:
  /// "X.csv" -> "X.records.csv" (any other name gains ".records.csv").
  [[nodiscard]] static std::string records_path(const std::string& csv_path);

  /// Splits one CSV row into its fields, honoring the RFC-4180 quoting
  /// csv_row produces (rows never span lines: newlines are flattened).
  [[nodiscard]] static std::vector<std::string> split_csv_row(const std::string& line);

  /// One outcome as its CSV row (no newline). Deterministic for a given
  /// scenario + seed: doubles use shortest-round-trip formatting, the
  /// fingerprint is fixed-width hex, and wall time is excluded. A failed
  /// outcome leaves the metric columns empty and fills `error`.
  [[nodiscard]] static std::string csv_row(std::size_t index, const RunOutcome& o);

  /// One outcome as its records block, each line newline-terminated: first
  /// `index,groups,N`, then per group g (scenario-file order) the metrics
  /// groups.g.{served,denied,payments_declined,payments_abandoned,
  /// allocation}. The leading count makes a block's completeness checkable
  /// on its own. A failed outcome has no block.
  [[nodiscard]] static std::string records_block(std::size_t index, const RunOutcome& o);

  /// Records one outcome under its global scenario index.
  void add(std::size_t index, const RunOutcome& outcome);

  /// All recorded outcomes as the results CSV / the records file, sorted by
  /// index.
  void write_csv(std::ostream& os) const;
  void write_records(std::ostream& os) const;

  [[nodiscard]] std::size_t size() const { return rows_.size(); }

  /// Merges sharded outputs of one kind — results CSVs or records files,
  /// told apart by the first input's header — into the byte-identical
  /// unsharded file: headers must match, indices must not collide, blocks
  /// come out sorted by index. Throws std::invalid_argument on malformed or
  /// overlapping inputs. A scenario index appearing twice is rejected
  /// whether the copies sit in different inputs or inside one input; the
  /// diagnostic names the input file(s) from `names` (one per shard;
  /// "input 0", ... when empty), so a retried dispatcher slice that leaked
  /// into two shard files is diagnosable.
  [[nodiscard]] static std::string merge_csv(const std::vector<std::string>& shards,
                                             const std::vector<std::string>& names = {});

  /// The scenario indices present in a CSV produced by write_csv (header
  /// required), sorted ascending.
  [[nodiscard]] static std::vector<std::size_t> csv_indices(const std::string& csv);

  /// What `speakup run --resume` needs from an interrupted run's CSV and
  /// records file: the rows that completed successfully in both, as a
  /// baseline for each file, and their (index, label) pairs for validating
  /// against the scenario file being resumed. A row counts only when its
  /// CSV row is whole and error-free and its records block holds every
  /// line its count promises; a final line without a trailing newline is
  /// a partial write and never counts. Failed and partial rows are left
  /// out so their scenarios re-run. An absent or empty records file leaves
  /// nothing completed. A duplicate index is a hard error: that file was
  /// never a write_csv / write_records output.
  struct ResumeInfo {
    std::string completed_csv;      // header + successfully completed rows
    std::string completed_records;  // header + those rows' records blocks
    std::vector<std::pair<std::size_t, std::string>> completed;  // (index, label)
  };
  [[nodiscard]] static ResumeInfo resume_info(const std::string& csv,
                                              const std::string& records);

 private:
  struct Row {
    std::size_t index;
    RunOutcome outcome;
  };
  [[nodiscard]] std::vector<const Row*> sorted_rows() const;

  std::vector<Row> rows_;
  std::unordered_set<std::size_t> row_indices_;
};

}  // namespace speakup::exp
