// Data-driven scenario files: parse a JSON scenario/sweep description into
// the labeled ScenarioConfigs an exp::Runner executes.
//
// A scenario file is a "defaults" object, an optional "report" (the paper
// figure `speakup report` prints from it), and a "scenarios" array where
// each entry may carry a "grid" (cross-product axes over dotted config
// paths), a "seeds" replication count, and a "label" template
// ("{defense}/g{lan.good}").
// Expansion is deterministic — file order, axis order, then seed order — so
// a scenario's index is stable across runs and processes, which is what
// makes sharded sweeps (`speakup run --shard i/M`) mergeable back into the
// exact unsharded output.
//
// The full schema (every key, defaults, grid semantics) is documented in
// docs/scenario_format.md; the checked-in files under scenarios/ are the
// runnable examples.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"

namespace speakup::exp {

/// Any defect in a scenario file: JSON syntax, an unknown or mistyped key,
/// a bad value. The message always names the offending location
/// ("scenarios[1].groups[0]: unknown key \"acess_bw_mbps\"").
class ScenarioError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One fully expanded scenario. `index` is its position in the file's
/// deterministic expansion order — the global coordinate used for sharding
/// and for merging sharded results.
struct LabeledScenario {
  std::size_t index = 0;
  std::string label;
  ScenarioConfig config;
};

struct ScenarioFile {
  std::string description;
  std::string report;  // exp/report.hpp reducer name; empty when absent
  std::vector<LabeledScenario> scenarios;

  /// The round-robin slice owned by shard `index` of `count` (scenario i
  /// goes to shard i % count). Indices/labels keep their global values.
  [[nodiscard]] std::vector<LabeledScenario> shard(int index, int count) const;

  /// Queues every scenario (or a shard's slice) onto a Runner, preserving
  /// labels.
  void queue_on(Runner& runner) const;
  static void queue_on(Runner& runner, const std::vector<LabeledScenario>& slice);
};

/// Parses a scenario document from JSON text. Throws ScenarioError.
[[nodiscard]] ScenarioFile parse_scenario_file(std::string_view json_text);

/// The whole text of the spec file at `path`; throws ScenarioError
/// ("<path>: cannot open file") when it cannot be read.
[[nodiscard]] std::string read_spec(const std::string& path);

/// Reads and parses `path`. Errors are prefixed with the file name.
[[nodiscard]] ScenarioFile load_scenario_file(const std::string& path);

/// What a spec file holds, by its discriminating key: "auction_game" or
/// "capacity_bench" (its "kind"), "tournament" (it has a "base"), else
/// "scenarios". Throws ScenarioError naming the file for text that is not
/// JSON, and naming "kind" when that key is not one of the two kind strings.
[[nodiscard]] std::string file_kind(const std::string& path);

/// Parsed scenarios/tab1_capacity.json (kind "capacity_bench"): the grid
/// for the thinner sink-rate benchmark (bench/tab1_thinner_capacity).
struct CapacityBenchSpec {
  std::string description;
  int clients = 0;                 // concurrent payers against the thinner
  std::vector<int> packet_bytes;   // wire packet sizes (payload = size - 40)
};

/// Reads and validates a capacity-bench grid file. Throws ScenarioError.
[[nodiscard]] CapacityBenchSpec load_capacity_bench_file(const std::string& path);

/// Parsed scenarios/abl5.json (kind "auction_game"): the Theorem 3.1 grid
/// the A5 report plays through core::run_auction_game.
struct AuctionGameSpec {
  std::string description;
  std::uint64_t seed = 0;
  std::string stream;      // RngStream label
  int ticks_quick = 0;     // quick-mode auction count
  int ticks_full = 0;      // SPEAKUP_FULL=1 auction count
  std::vector<double> eps;              // in (0, 1)
  std::vector<double> delta;            // service-interval jitter, in [0, 0.5]
  std::vector<std::string> adversaries; // core::auction_game registry names
};

/// Reads and validates an auction-game grid file: integral seed and tick
/// counts, the axis ranges above, and registered adversary names. Throws
/// ScenarioError naming the key.
[[nodiscard]] AuctionGameSpec load_auction_game_file(const std::string& path);

/// Strict companion to parse_defense_mode for config-file and CLI paths:
/// returns `name` when it is a built-in mode or a registered
/// core::FrontEndFactory defense, and otherwise throws std::invalid_argument
/// listing every registered name — a scenario-file typo fails loudly
/// instead of running some default defense.
[[nodiscard]] std::string resolve_defense_name(std::string_view name);

/// Same contract for workload strategies: returns `name` when it is
/// registered with client::StrategyFactory, and otherwise throws
/// std::invalid_argument listing every registered strategy. Used for the
/// `workload.strategy` scenario key (strategy knobs are validated by
/// constructing the strategy at parse time).
[[nodiscard]] std::string resolve_strategy_name(std::string_view name);

}  // namespace speakup::exp
