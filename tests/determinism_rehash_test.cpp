// Heap-layout / hash-state perturbation determinism.
//
// The repo's contract is that result bytes depend only on the scenario
// (config + seed) — never on process state. The classic way that contract
// rots is through unordered containers: libstdc++ iteration order for
// pointer keys follows heap addresses, and for integer keys it follows the
// insertion/rehash history. Code that range-iterates such a container into
// anything observable works fine until allocator state shifts underneath
// it (a different test ran first, jemalloc vs glibc, ASLR) — at which
// point fingerprints move and every pin looks "flaky".
//
// These tests force that shift inside one process: run a sweep, then
// deliberately perturb the heap (leaked odd-sized blocks, churned free
// lists, a rehashed scratch table) and the thread count, run the identical
// sweep again, and require the output BYTES — sweep CSV, tournament payoff
// CSV and JSON — to be unchanged. Together with tools/determinism_lint.py
// (which bans new unordered iteration statically) this closes the gap the
// fingerprint pins leave: there a process-state dependence shows up only
// as a pin that fails in some runs and not others, with no named cause.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "exp/result_writer.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_io.hpp"
#include "exp/tournament.hpp"

namespace speakup {
namespace {

/// Shifts allocator state without any nondeterminism of its own: leaks a
/// batch of odd-sized blocks (so every later allocation of those size
/// classes lands elsewhere), churns the free lists with transient blocks,
/// and drives a scratch unordered_map through its growth/rehash schedule.
void perturb_heap_and_hash_state() {
  static std::vector<std::unique_ptr<char[]>> leaks;  // deliberate: lives to exit
  std::uint64_t x = 0x9e3779b97f4a7c15ull + leaks.size();
  for (int i = 0; i < 257; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    leaks.push_back(std::make_unique<char[]>(17 + (x >> 33) % 4093));
  }
  std::vector<std::unique_ptr<char[]>> transient;
  for (int i = 0; i < 999; ++i) {
    transient.push_back(std::make_unique<char[]>(33 + (i * 61) % 2048));
  }
  std::unordered_map<std::uint64_t, std::uint64_t> scratch;
  for (std::uint64_t k = 0; k < 10'000; ++k) scratch[k * 0x9e3779b9u] = k;
}

/// The smoke sweep as ResultWriter CSV bytes.
std::string smoke_csv(int jobs) {
  const exp::ScenarioFile file =
      exp::load_scenario_file(std::string(SPEAKUP_SCENARIO_DIR) + "/smoke.json");
  exp::Runner runner;
  exp::ScenarioFile::queue_on(runner, file.scenarios);
  runner.run_all(jobs);
  exp::ResultWriter writer;
  for (std::size_t i = 0; i < runner.outcomes().size(); ++i) {
    writer.add(file.scenarios[i].index, runner.outcomes()[i]);
  }
  std::ostringstream os;
  writer.write_csv(os);
  return os.str();
}

TEST(DeterminismRehash, SmokeSweepCsvBytesSurviveHeapPerturbation) {
  const std::string first = smoke_csv(/*jobs=*/1);
  perturb_heap_and_hash_state();
  const std::string second = smoke_csv(/*jobs=*/3);  // and a thread-count change
  EXPECT_EQ(first, second)
      << "sweep CSV bytes changed with heap layout / thread count: some "
         "result path depends on allocator or hash-iteration state";
}

TEST(DeterminismRehash, TournamentPayoffBytesSurviveHeapPerturbation) {
  const exp::TournamentSpec spec = exp::load_tournament_spec(
      std::string(SPEAKUP_SCENARIO_DIR) + "/tournament_small.json");

  const auto payoff = [&spec](int jobs) {
    const exp::ScenarioFile file =
        exp::parse_scenario_file(exp::tournament_scenarios_json(spec));
    exp::Runner runner;
    exp::ScenarioFile::queue_on(runner, file.scenarios);
    runner.run_all(jobs);
    exp::ResultWriter writer;
    for (std::size_t i = 0; i < runner.outcomes().size(); ++i) {
      writer.add(file.scenarios[i].index, runner.outcomes()[i]);
    }
    std::ostringstream os;
    writer.write_csv(os);
    const exp::PayoffMatrix m = exp::score_tournament(spec, os.str());
    return std::pair<std::string, std::string>{exp::payoff_csv(m), exp::payoff_json(m)};
  };

  const auto first = payoff(/*jobs=*/2);
  perturb_heap_and_hash_state();
  const auto second = payoff(/*jobs=*/4);
  EXPECT_EQ(first.first, second.first) << "payoff CSV bytes moved with process state";
  EXPECT_EQ(first.second, second.second) << "payoff JSON bytes moved with process state";
}

}  // namespace
}  // namespace speakup
