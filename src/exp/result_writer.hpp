// Result persistence: serialize Runner outcomes to CSV and JSON so sweeps
// are diffable across PRs and mergeable across processes.
//
// Every row carries the scenario's global expansion index (its coordinate
// in the scenario file) and the deterministic ExperimentResult::fingerprint.
// Rows are written sorted by index and every field except none is
// deterministic (wall_seconds is deliberately excluded from CSV), so
//
//   run --shard 0/2 + run --shard 1/2 + merge  ==  run unsharded
//
// byte for byte. That identity is the contract `speakup merge` relies on
// and result_writer_test.cpp enforces; it is the first concrete step of
// ROADMAP's "scale the Runner past one process" item.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace speakup::exp {

class ResultWriter {
 public:
  /// The CSV header row (no newline). Stable: downstream tooling and
  /// sharded merges key on it.
  [[nodiscard]] static const std::string& csv_header();

  /// Splits one CSV row into its fields, honoring the RFC-4180 quoting
  /// csv_row produces (rows never span lines: newlines are flattened).
  [[nodiscard]] static std::vector<std::string> split_csv_row(const std::string& line);

  /// One outcome as its CSV row (no newline). Deterministic for a given
  /// scenario + seed: doubles use shortest-round-trip formatting, the
  /// fingerprint is fixed-width hex, and wall time is excluded. A failed
  /// outcome leaves the metric columns empty and fills `error`.
  [[nodiscard]] static std::string csv_row(std::size_t index, const RunOutcome& o);

  /// Records one outcome under its global scenario index.
  void add(std::size_t index, const RunOutcome& outcome);

  /// All recorded outcomes as CSV / JSON, sorted by index. The JSON form
  /// additionally carries per-group breakdowns and wall_seconds (documented
  /// as the one nondeterministic field).
  void write_csv(std::ostream& os) const;
  void write_json(std::ostream& os) const;

  [[nodiscard]] std::size_t size() const { return rows_.size(); }

  /// Merges sharded CSV outputs (each produced by write_csv) into the
  /// byte-identical unsharded file: headers must match, indices must not
  /// collide, rows come out sorted by index. Throws std::invalid_argument
  /// on malformed or overlapping inputs. A scenario index appearing twice
  /// is rejected whether the copies sit in different inputs or inside one
  /// input; the `names` overload reports which input file(s), so a retried
  /// dispatcher slice that leaked into two shard CSVs is diagnosable.
  [[nodiscard]] static std::string merge_csv(const std::vector<std::string>& shards);
  [[nodiscard]] static std::string merge_csv(const std::vector<std::string>& shards,
                                             const std::vector<std::string>& names);

  /// Merges sharded JSON outputs (each produced by write_json) the same
  /// way: entries are keyed by their "index", overlaps are errors, and the
  /// merged document is sorted by index. Because entries are re-serialized
  /// from parsed values (deterministic key order, round-trip numbers), the
  /// merge of a writer's split outputs is byte-identical to that writer's
  /// unsharded write_json — modulo nothing: wall_seconds rides along
  /// verbatim inside each entry.
  [[nodiscard]] static std::string merge_json(const std::vector<std::string>& shards);
  [[nodiscard]] static std::string merge_json(const std::vector<std::string>& shards,
                                              const std::vector<std::string>& names);

  /// The scenario indices present in a CSV produced by write_csv (header
  /// required), sorted ascending.
  [[nodiscard]] static std::vector<std::size_t> csv_indices(const std::string& csv);

  /// What `speakup run --resume` needs from an interrupted run's CSV: the
  /// rows that completed successfully (failed rows are dropped so their
  /// scenarios get re-run, not carried forward) and their (index, label)
  /// pairs for validating the CSV against the scenario file being resumed.
  /// Robust against a writer killed mid-row: a final line without a
  /// trailing newline and any row with the wrong column count are treated
  /// as not completed (their scenarios re-run). A duplicate index is a
  /// hard error — that CSV was never a write_csv output.
  struct ResumeInfo {
    std::string completed_csv;  // header + successfully completed rows
    std::vector<std::pair<std::size_t, std::string>> completed;  // (index, label)
  };
  [[nodiscard]] static ResumeInfo resume_info(const std::string& csv);

 private:
  struct Row {
    std::size_t index;
    RunOutcome outcome;
  };
  std::vector<Row> rows_;
};

}  // namespace speakup::exp
