// Paper reports: `speakup report <file>` prints a figure or table of the
// paper's evaluation (§7: Figures 2-9, Table 1, §7.4, and ablations A1 and
// A3-A5) from a checked-in scenario file.
//
// A scenario file names its reducer with a top-level "report" key; the
// reducer reads the file's finished outcomes and prints a banner, the
// paper's expectation, and a stats::Table. Every x-axis comes from the
// outcomes (labels, configs, groups), so trimming or extending the file's
// grid changes the rows, never breaks the report. An auction_game file
// (scenarios/abl5.json) always reports the Theorem 3.1 table (ablation A5).
//
// SPEAKUP_FULL=1 stretches the runs to the paper's 600 s (each reducer
// keeps its own rules, e.g. fig9 also restores 100 downloads).
#pragma once

#include <ostream>
#include <span>
#include <string>
#include <string_view>

namespace speakup::exp {

struct RunOutcome;
struct ScenarioFile;

/// Whether a scenario file's "report" key may name `name`.
[[nodiscard]] bool is_report_name(std::string_view name);

/// Every reducer name, comma-separated in table order (for diagnostics).
[[nodiscard]] std::string report_names();

/// Prints the report of `file` from `outcomes`, the finished runs of its
/// scenarios in file order and with the file's labels. Throws ScenarioError
/// for a file without a "report" key and for a row that lacks what the
/// reducer reads (naming the reducer, the row and what is missing), and
/// std::runtime_error when a scenario failed.
void print_report(const ScenarioFile& file, std::span<const RunOutcome> outcomes,
                  std::ostream& os);

/// Loads `path`, stretches it under SPEAKUP_FULL=1, runs it on a Runner with
/// `jobs` threads (0 = hardware concurrency; the report is byte-identical for
/// any value), and prints its report to `os`. An auction_game file prints the
/// Theorem 3.1 table. Throws as print_report does.
void write_report(const std::string& path, int jobs, std::ostream& os);

}  // namespace speakup::exp
