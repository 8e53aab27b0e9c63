// Paper reports: `speakup report <file>` prints a figure or table of the
// paper's evaluation (§7: Figures 2-9, Table 1, §7.4, and ablations A1 and
// A3-A5) from a checked-in scenario file.
//
// A scenario file names its reducer with a top-level "report" key; the
// reducer reads the finished Runner's outcomes and prints a banner, the
// paper's expectation, and a stats::Table. Every x-axis comes from the
// outcomes (labels, configs, groups), so trimming or extending the file's
// grid changes the rows, never breaks the report. An auction_game file
// (scenarios/abl5.json) always reports the Theorem 3.1 table (ablation A5).
//
// SPEAKUP_FULL=1 stretches the runs to the paper's 600 s (each reducer
// keeps its own rules, e.g. fig9 also restores 100 downloads).
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>

namespace speakup::exp {

/// Whether a scenario file's "report" key may name `name`.
[[nodiscard]] bool is_report_name(std::string_view name);

/// Every reducer name, comma-separated in table order (for diagnostics).
[[nodiscard]] std::string report_names();

/// Table 1 row 3 / §7.1, the thinner's capacity: `clients` payers on
/// 200 Mbit/s lines stream effectively endless POSTs (wire packets of `mss`
/// + 40 header bytes) into an auction thinner whose server never finishes,
/// so every byte they send is payment. After 1 s of simulated warm-up the
/// simulation advances `step` seconds at a time while `more()` holds;
/// returns the payment bytes the thinner sank meanwhile. The `tab1` report
/// times it against the wall clock; bench/tab1_thinner_capacity runs it
/// under google-benchmark.
[[nodiscard]] std::int64_t sink_payment(std::int64_t mss, int clients, double step,
                                        const std::function<bool()>& more);

/// Loads `path`, runs it on a Runner with `jobs` threads (0 = hardware
/// concurrency; the report is byte-identical for any value), and prints its
/// report to `os`. Throws ScenarioError for a file without a "report" key
/// and std::runtime_error when a scenario fails.
void write_report(const std::string& path, int jobs, std::ostream& os);

}  // namespace speakup::exp
