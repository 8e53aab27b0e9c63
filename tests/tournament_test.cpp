// Tests for the adversarial tournament subsystem (exp/tournament.hpp and
// the `speakup tournament` CLI command).
//
// Unit level: spec parsing (registry validation, attacker-group checks),
// the defense-major expansion order, and score_tournament's rejection of
// incomplete or mismatched sweeps.
//
// Property level, on the checked-in 4x4 scenarios/tournament_small.json:
// matrix invariants (|D| x |S| cells, complete labels), "none" weakly
// dominated in every attacker column, the §7.4 ordering (auction serves
// good clients at least as well as retry against defectors), and
// determinism — the sweep CSV is byte-identical across thread counts and
// across shard+merge.
//
// Golden level: the payoff CSV and Pareto report bytes are pinned, so any
// change to scoring, formatting, or the simulation's dynamics shows up in
// review as a diff of this file.
//
// End to end, against the real binary (SPEAKUP_CLI_BIN): the single-process
// tournament, the --expand-only + shard + merge + --score path, and a
// dispatch run with an injected worker SIGKILL must all produce the same
// payoff bytes.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "client/strategy.hpp"
#include "core/front_end_factory.hpp"
#include "exp/result_writer.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_io.hpp"
#include "exp/tournament.hpp"
#include "util/json.hpp"

namespace speakup {
namespace {

namespace json = util::json;

std::string spec_path() {
  return std::string(SPEAKUP_SCENARIO_DIR) + "/tournament_small.json";
}

const exp::TournamentSpec& small_spec() {
  static const exp::TournamentSpec spec = exp::load_tournament_spec(spec_path());
  return spec;
}

/// Runs the small tournament's sweep (or one shard of it) in-process and
/// returns the ResultWriter CSV.
std::string sweep_csv(int jobs, int shard_index = 0, int shard_count = 1) {
  const exp::ScenarioFile file =
      exp::parse_scenario_file(exp::tournament_scenarios_json(small_spec()));
  const std::vector<exp::LabeledScenario> slice = file.shard(shard_index, shard_count);
  exp::Runner runner;
  exp::ScenarioFile::queue_on(runner, slice);
  runner.run_all(jobs);
  exp::ResultWriter writer;
  for (std::size_t i = 0; i < runner.outcomes().size(); ++i) {
    writer.add(slice[i].index, runner.outcomes()[i]);
  }
  std::ostringstream os;
  writer.write_csv(os);
  return os.str();
}

/// The scored 4x4 matrix, computed once per process.
const exp::PayoffMatrix& small_matrix() {
  static const exp::PayoffMatrix m =
      exp::score_tournament(small_spec(), sweep_csv(/*jobs=*/4));
  return m;
}

std::size_t row_of(const exp::PayoffMatrix& m, const std::string& defense) {
  for (std::size_t d = 0; d < m.defenses.size(); ++d) {
    if (m.defenses[d] == defense) return d;
  }
  ADD_FAILURE() << "no defense row '" << defense << "'";
  return 0;
}

// ---------------------------------------------------------------------------
// Spec parsing.
// ---------------------------------------------------------------------------

TEST(TournamentSpec, ParsesTheCheckedInSpec) {
  const exp::TournamentSpec& spec = small_spec();
  EXPECT_EQ(spec.defenses,
            (std::vector<std::string>{"none", "retry", "auction", "elastic"}));
  EXPECT_EQ(spec.strategies,
            (std::vector<std::string>{"poisson", "defector", "recon", "switcher"}));
  EXPECT_EQ(spec.attacker_group, 1u);
}

TEST(TournamentSpec, RejectsBadDocuments) {
  const char* bad[] = {
      // not an object
      "[]",
      // unknown top-level key
      R"({"base": {"groups": []}, "bogus": 1})",
      // missing base
      R"({"defenses": ["none"]})",
      // base without groups
      R"({"base": {"capacity_rps": 5}})",
      // attacker group out of range
      R"({"attacker_group": 2, "base": {"groups": [
           {"label": "g", "count": 1, "workload": "good"},
           {"label": "b", "count": 1, "workload": "bad"}]}})",
      // unregistered defense
      R"({"defenses": ["no-such-defense"], "base": {"groups": [
           {"label": "g", "count": 1, "workload": "good"},
           {"label": "b", "count": 1, "workload": "bad"}]}})",
      // unregistered strategy
      R"({"strategies": ["no-such-strategy"], "base": {"groups": [
           {"label": "g", "count": 1, "workload": "good"},
           {"label": "b", "count": 1, "workload": "bad"}]}})",
      // duplicate defense row
      R"({"defenses": ["none", "none"], "base": {"groups": [
           {"label": "g", "count": 1, "workload": "good"},
           {"label": "b", "count": 1, "workload": "bad"}]}})",
      // per-scenario directive smuggled into base
      R"({"base": {"seeds": 3, "groups": [
           {"label": "g", "count": 1, "workload": "good"},
           {"label": "b", "count": 1, "workload": "bad"}]}})",
  };
  for (const char* doc : bad) {
    EXPECT_THROW((void)exp::parse_tournament_spec(doc), exp::ScenarioError) << doc;
  }
}

TEST(TournamentSpec, OmittedAxesDefaultToTheFullRegistries) {
  const exp::TournamentSpec spec = exp::parse_tournament_spec(
      R"({"base": {"duration_s": 1, "groups": [
           {"label": "g", "count": 1, "workload": {"preset": "good"}},
           {"label": "b", "count": 1, "workload": {"preset": "bad"}}]}})");
  EXPECT_EQ(spec.defenses, core::FrontEndFactory::instance().names());
  EXPECT_EQ(spec.strategies, client::StrategyFactory::instance().names());
}

// ---------------------------------------------------------------------------
// Expansion.
// ---------------------------------------------------------------------------

TEST(TournamentExpansion, CellsAreCompleteAndDefenseMajor) {
  const exp::TournamentSpec& spec = small_spec();
  const exp::ScenarioFile file =
      exp::parse_scenario_file(exp::tournament_scenarios_json(spec));
  ASSERT_EQ(file.scenarios.size(), spec.defenses.size() * spec.strategies.size());
  for (std::size_t d = 0; d < spec.defenses.size(); ++d) {
    for (std::size_t s = 0; s < spec.strategies.size(); ++s) {
      const std::size_t index = d * spec.strategies.size() + s;
      const exp::LabeledScenario& cell = file.scenarios[index];
      EXPECT_EQ(cell.index, index);
      EXPECT_EQ(cell.label, spec.defenses[d] + "|" + spec.strategies[s]);
      EXPECT_EQ(cell.config.defense, spec.defenses[d]);
      ASSERT_EQ(cell.config.groups.size(), 2u);
      EXPECT_EQ(cell.config.groups[1].workload.strategy, spec.strategies[s]);
      // The strategy column makes every cell row self-describing
      // (strategy_names() dedupes, so the all-poisson cell is just "poisson").
      const std::string expected = spec.strategies[s] == "poisson"
                                       ? "poisson"
                                       : "poisson+" + spec.strategies[s];
      EXPECT_EQ(cell.config.strategy_names(), expected);
    }
  }
}

TEST(TournamentExpansion, IsDeterministicBytes) {
  EXPECT_EQ(exp::tournament_scenarios_json(small_spec()),
            exp::tournament_scenarios_json(small_spec()));
}

// ---------------------------------------------------------------------------
// Determinism of the sweep itself.
// ---------------------------------------------------------------------------

TEST(TournamentDeterminism, SweepCsvIsByteIdenticalAcrossJobCounts) {
  EXPECT_EQ(sweep_csv(/*jobs=*/1), sweep_csv(/*jobs=*/4));
}

TEST(TournamentDeterminism, ShardedSweepMergesToUnshardedBytes) {
  const std::string unsharded = sweep_csv(/*jobs=*/2);
  const std::string merged = exp::ResultWriter::merge_csv(
      {sweep_csv(2, 0, 3), sweep_csv(2, 1, 3), sweep_csv(2, 2, 3)});
  EXPECT_EQ(merged, unsharded);
}

// ---------------------------------------------------------------------------
// Matrix properties.
// ---------------------------------------------------------------------------

TEST(TournamentMatrix, HasOneCellPerDefenseStrategyPair) {
  const exp::PayoffMatrix& m = small_matrix();
  ASSERT_EQ(m.cells.size(), m.defenses.size() * m.strategies.size());
  for (std::size_t d = 0; d < m.defenses.size(); ++d) {
    for (std::size_t s = 0; s < m.strategies.size(); ++s) {
      const exp::PayoffCell& c = m.cell(d, s);
      EXPECT_EQ(c.index, d * m.strategies.size() + s);
      EXPECT_EQ(c.defense, m.defenses[d]);
      EXPECT_EQ(c.strategy, m.strategies[s]);
      EXPECT_EQ(c.fingerprint.size(), 16u) << c.fingerprint;
      EXPECT_GE(c.good_fraction, 0.0);
      EXPECT_LE(c.good_fraction, 1.0);
      EXPECT_GT(c.attacker_bytes, 0);  // attackers always at least send requests
    }
  }
}

// The paper's core claim, as a matrix property: an undefended server is
// never the right answer — in every attacker column some defense serves the
// good population at least as well, and overall "none" is weakly dominated.
TEST(TournamentMatrix, NoneIsWeaklyDominatedInEveryAttackerColumn) {
  const exp::PayoffMatrix& m = small_matrix();
  const std::size_t none = row_of(m, "none");
  for (std::size_t s = 0; s < m.strategies.size(); ++s) {
    double best_other = 0.0;
    for (std::size_t d = 0; d < m.defenses.size(); ++d) {
      if (d != none) best_other = std::max(best_other, m.cell(d, s).good_fraction);
    }
    EXPECT_GE(best_other, m.cell(none, s).good_fraction) << m.strategies[s];
  }
  bool dominated = false;
  for (std::size_t d = 0; d < m.defenses.size(); ++d) {
    dominated = dominated || (d != none && m.dominates(d, none));
  }
  EXPECT_TRUE(dominated);
  for (const std::size_t d : m.pareto_rows()) EXPECT_NE(d, none);
}

// §7.4 regression in matrix form: against defectors the explicit payment
// channel is at least as good for the good population as the retry thinner.
TEST(TournamentMatrix, AuctionServesGoodAtLeastAsWellAsRetryAgainstDefectors) {
  const exp::PayoffMatrix& m = small_matrix();
  const std::size_t defector =
      static_cast<std::size_t>(std::find(m.strategies.begin(), m.strategies.end(),
                                         "defector") -
                               m.strategies.begin());
  ASSERT_LT(defector, m.strategies.size());
  EXPECT_GE(m.cell(row_of(m, "auction"), defector).good_fraction,
            m.cell(row_of(m, "retry"), defector).good_fraction);
}

// ---------------------------------------------------------------------------
// Scoring rejects sweeps that do not match the spec.
// ---------------------------------------------------------------------------

TEST(TournamentScore, RejectsMissingFailedAndMislabeledCells) {
  const std::string csv = sweep_csv(2);
  // Drop the last row: a missing cell.
  const std::string truncated = csv.substr(0, csv.find_last_of('\n', csv.size() - 2) + 1);
  EXPECT_THROW((void)exp::score_tournament(small_spec(), truncated),
               std::runtime_error);
  // Not a result CSV at all.
  EXPECT_THROW((void)exp::score_tournament(small_spec(), "hello\n"),
               std::runtime_error);
  // A failed cell: rewrite row 0 as an error row.
  std::istringstream in(csv);
  std::string line, with_error;
  std::getline(in, line);
  with_error = line + "\n";
  std::getline(in, line);
  with_error += "0,none|poisson,none,poisson+poisson,42,6,6,,,,,,,,,,,,,boom\n";
  while (std::getline(in, line)) with_error += line + "\n";
  EXPECT_THROW((void)exp::score_tournament(small_spec(), with_error),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Goldens: scoring output bytes are pinned.
// ---------------------------------------------------------------------------

TEST(TournamentGolden, PayoffCsvBytesArePinned) {
  EXPECT_EQ(exp::payoff_csv(small_matrix()),
            "defense,strategy,fraction_good_served,attacker_bytes,fingerprint\n"
            "none,poisson,0.01694915254237288,119200,919a8d766318156b\n"
            "none,defector,0.01694915254237288,119200,6118f182b44c7cb2\n"
            "none,recon,0.01694915254237288,119200,986ce2f58db6e1cc\n"
            "none,switcher,0.01694915254237288,119200,ae79ef6919cee091\n"
            "retry,poisson,0.9523809523809523,4880500,36f3dd00046e716e\n"
            "retry,defector,0.9523809523809523,4880500,70f07c4dd4ccfbb7\n"
            "retry,recon,0.9523809523809523,4880500,416d93a574995979\n"
            "retry,switcher,0.9523809523809523,4880500,c669db13e31ce90c\n"
            "auction,poisson,1,767980,dc5fac94fb2c8303\n"
            "auction,defector,1,810320,7411b82959109cc2\n"
            "auction,recon,1,759020,6713bd984a7485aa\n"
            "auction,switcher,1,767980,d0bc1392a36e3741\n"
            "elastic,poisson,0.11864406779661017,119200,999bb8ebeb6a97d8\n"
            "elastic,defector,0.11864406779661017,119200,c53e06a9c4197939\n"
            "elastic,recon,0.11864406779661017,119200,80f97e902ca3be03\n"
            "elastic,switcher,0.11864406779661017,119200,9581db7cb712c5b2\n");
}

TEST(TournamentGolden, ParetoReportIsPinned) {
  const std::string report = exp::pareto_report(small_matrix());
  // Structure: header, matrix, best-per-column, dominance, frontier.
  EXPECT_EQ(report.rfind("tournament: 4 defense(s) x 4 attacker strategy(s)\n", 0), 0u)
      << report;
  const std::string tail = report.substr(report.find("\nbest defense"));
  EXPECT_EQ(tail,
            "\nbest defense per attacker strategy:\n"
            "  vs poisson: auction (1)\n"
            "  vs defector: auction (1)\n"
            "  vs recon: auction (1)\n"
            "  vs switcher: auction (1)\n"
            "\ndominance (weak, across every attacker column):\n"
            "  none: dominates [], dominated by [retry, auction, elastic]\n"
            "  retry: dominates [none, elastic], dominated by [auction]\n"
            "  auction: dominates [none, retry, elastic], dominated by []\n"
            "  elastic: dominates [none], dominated by [retry, auction]\n"
            "\npareto frontier: auction\n");
  EXPECT_NE(report.find("  none vs poisson: 0.01694915254237288 / 119200\n"),
            std::string::npos);
  EXPECT_NE(report.find("  auction vs defector: 1 / 810320\n"), std::string::npos);
}

TEST(TournamentGolden, PayoffJsonRoundTripsAndPinsTheFrontier) {
  const std::string text = exp::payoff_json(small_matrix());
  const json::Value doc = json::parse(text);
  ASSERT_TRUE(doc.find("cells") != nullptr);
  ASSERT_EQ(doc.find("cells")->as_array().size(), 16u);
  const json::Value& first = doc.find("cells")->as_array()[0];
  EXPECT_EQ(first.find("defense")->as_string(), "none");
  EXPECT_EQ(first.find("strategy")->as_string(), "poisson");
  EXPECT_EQ(first.find("fingerprint")->as_string(), "919a8d766318156b");
  ASSERT_TRUE(doc.find("pareto_frontier") != nullptr);
  ASSERT_EQ(doc.find("pareto_frontier")->as_array().size(), 1u);
  EXPECT_EQ(doc.find("pareto_frontier")->as_array()[0].as_string(), "auction");
}

// ---------------------------------------------------------------------------
// End to end: the real binary, all three execution paths byte-identical.
// ---------------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool file_exists(const std::string& path) { return std::ifstream(path).good(); }

struct CmdResult {
  int exit_code = -1;  // -1: killed by a signal / system() failure
  std::string out;
  std::string err;
};

class TournamentE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/speakup_tournament_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    const std::string cmd = "rm -rf '" + dir_ + "'";
    (void)std::system(cmd.c_str());
  }

  CmdResult cli(const std::string& args, const std::string& env_prefix = "") {
    const std::string out_path = dir_ + "/.cmd_out";
    const std::string err_path = dir_ + "/.cmd_err";
    const std::string cmd = env_prefix + (env_prefix.empty() ? "" : " ") +
                            std::string(SPEAKUP_CLI_BIN) + " " + args + " > '" +
                            out_path + "' 2> '" + err_path + "'";
    const int status = std::system(cmd.c_str());
    CmdResult r;
    if (status != -1 && WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
    r.out = read_file(out_path);
    r.err = read_file(err_path);
    return r;
  }

  /// The single-process tournament every other path must match.
  std::string baseline_payoff() {
    const CmdResult r =
        cli("tournament " + spec_path() + " --out " + dir_ + "/direct --jobs 2 --quiet");
    EXPECT_EQ(r.exit_code, 0) << r.err;
    return read_file(dir_ + "/direct/payoff.csv");
  }

  /// Expects `csv` and the records file beside it to equal the sweep files
  /// the single-process tournament wrote.
  void expect_baseline_results(const std::string& csv) {
    EXPECT_EQ(read_file(csv), read_file(dir_ + "/direct/results.csv")) << csv;
    EXPECT_EQ(read_file(exp::ResultWriter::records_path(csv)),
              read_file(dir_ + "/direct/results.records.csv"))
        << csv;
  }

  std::string dir_;
};

TEST_F(TournamentE2E, WritesAllArtifacts) {
  const CmdResult r =
      cli("tournament " + spec_path() + " --out " + dir_ + "/t --jobs 2");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  for (const char* f :
       {"scenarios.json", "results.csv", "results.records.csv", "payoff.csv", "payoff.json",
        "pareto.txt"}) {
    EXPECT_TRUE(file_exists(dir_ + "/t/" + f)) << f;
  }
  EXPECT_NE(r.out.find("pareto frontier: auction"), std::string::npos) << r.out;
  // The generated sweep is a valid ordinary scenario file.
  const CmdResult v = cli("validate " + dir_ + "/t/scenarios.json");
  EXPECT_EQ(v.exit_code, 0) << v.err;
  // And `validate` understands the spec itself (CI validates every file
  // under scenarios/, tournament specs included).
  const CmdResult vs = cli("validate " + spec_path());
  EXPECT_EQ(vs.exit_code, 0) << vs.err;
  EXPECT_NE(vs.out.find("tournament spec"), std::string::npos) << vs.out;
  EXPECT_NE(vs.out.find("4 defense(s) x 4 strategy(s) = 16 cell(s)"),
            std::string::npos)
      << vs.out;
}

TEST_F(TournamentE2E, ShardMergeScorePathIsByteIdentical) {
  const std::string direct = baseline_payoff();
  const CmdResult expand =
      cli("tournament " + spec_path() + " --out " + dir_ + "/sh --expand-only --quiet");
  ASSERT_EQ(expand.exit_code, 0) << expand.err;
  const std::string scen = dir_ + "/sh/scenarios.json";
  for (int i = 0; i < 2; ++i) {
    const CmdResult r = cli("run " + scen + " --shard " + std::to_string(i) +
                            "/2 --out " + dir_ + "/shard" + std::to_string(i) +
                            ".csv --quiet");
    ASSERT_EQ(r.exit_code, 0) << r.err;
  }
  const CmdResult m = cli("merge --out " + dir_ + "/merged.csv " + dir_ +
                          "/shard0.csv " + dir_ + "/shard1.csv");
  ASSERT_EQ(m.exit_code, 0) << m.err;
  const CmdResult score = cli("tournament " + spec_path() + " --out " + dir_ +
                              "/sh --score " + dir_ + "/merged.csv --quiet");
  ASSERT_EQ(score.exit_code, 0) << score.err;
  EXPECT_EQ(read_file(dir_ + "/sh/payoff.csv"), direct);
  expect_baseline_results(dir_ + "/merged.csv");

  // --resume into the merged pair with its records file cut mid-line
  // re-runs the last cell and restores the same bytes.
  const std::string records = read_file(dir_ + "/merged.records.csv");
  std::ofstream(dir_ + "/merged.records.csv", std::ios::binary)
      << records.substr(0, records.size() - 2);
  const CmdResult resumed =
      cli("run " + scen + " --out " + dir_ + "/merged.csv --resume --quiet");
  ASSERT_EQ(resumed.exit_code, 0) << resumed.err;
  expect_baseline_results(dir_ + "/merged.csv");
}

TEST_F(TournamentE2E, DispatchWithInjectedWorkerKillIsByteIdentical) {
  const std::string direct = baseline_payoff();
  const CmdResult expand =
      cli("tournament " + spec_path() + " --out " + dir_ + "/dp --expand-only --quiet");
  ASSERT_EQ(expand.exit_code, 0) << expand.err;
  const CmdResult d = cli(
      "dispatch " + dir_ + "/dp/scenarios.json --workers 4 --out " + dir_ +
          "/dispatched.csv --status json --heartbeat-ms 500",
      "SPEAKUP_WORKER_FAULT='kill:1:" + dir_ + "/kill_token'");
  ASSERT_EQ(d.exit_code, 0) << d.err << d.out;
  // The fault must actually have fired and been survived.
  EXPECT_NE(d.out.find("\"type\":\"worker_dead\""), std::string::npos) << d.out;
  const CmdResult score = cli("tournament " + spec_path() + " --out " + dir_ +
                              "/dp --score " + dir_ + "/dispatched.csv --quiet");
  ASSERT_EQ(score.exit_code, 0) << score.err;
  EXPECT_EQ(read_file(dir_ + "/dp/payoff.csv"), direct);
  expect_baseline_results(dir_ + "/dispatched.csv");
}

}  // namespace
}  // namespace speakup
