// `speakup` — the data-driven sweep driver.
//
//   speakup run scenarios/fig2.json --out results.csv --jobs 4
//   speakup run scenarios/fig2.json --shard 0/2 --out shard0.csv
//   speakup run scenarios/fig2.json --out results.csv --resume
//   speakup run scenarios/fig2.json --list
//   speakup tournament scenarios/tournament_small.json --out tourney/
//   speakup dispatch scenarios/fig2.json --workers 4 --out results.csv
//   speakup merge --out merged.csv shard0.csv shard1.csv
//   speakup report scenarios/fig2.json --jobs 4
//   speakup validate scenarios/fig2.json
//   speakup defenses
//   speakup strategies
//
// `run` executes a scenario file on a Runner thread pool; `--shard i/M`
// takes the round-robin slice owned by process i of M, and `merge` stitches
// the per-shard CSVs and their records files back into the unsharded
// output (results are deterministic per scenario + seed, so splitting work
// across processes never changes numbers). Every results CSV X.csv has its
// records file X.records.csv beside it (exp/result_writer.hpp). `--resume`
// skips scenario indices already complete in the `--out` CSV and its
// records file and merges the rest in, byte-identical to an uninterrupted
// run. `dispatch` is the
// fault-tolerant multi-process driver built on the same shard slices: it
// spawns `speakup worker` subprocesses (an internal mode, not for direct
// use) and supervises them — see exp/dispatch.hpp and docs/cli.md. `report`
// runs a paper file and prints its figure or table (exp/report.hpp). Full
// usage notes live in docs/cli.md; the file format in
// docs/scenario_format.md.
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "client/strategy.hpp"
#include "core/front_end_factory.hpp"
#include "exp/dispatch.hpp"
#include "exp/report.hpp"
#include "exp/result_writer.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_io.hpp"
#include "exp/tournament.hpp"
#include "obs/observer.hpp"
#include "util/json.hpp"

namespace {

using namespace speakup;

int usage(std::FILE* to) {
  std::fprintf(to,
               "speakup — data-driven scenario sweeps for the speak-up simulator\n"
               "\n"
               "usage:\n"
               "  speakup run <scenarios.json> [options]   execute a scenario file\n"
               "    --out FILE       write results as CSV (deterministic, mergeable); per-group\n"
               "                     records go to FILE's '.records.csv' sibling\n"
               "    --jobs N         thread-pool size (default: hardware concurrency)\n"
               "    --shard i/M      run only scenarios with index %% M == i\n"
               "    --resume         skip indices already complete in the --out CSV and its\n"
               "                     records, merge the rest\n"
               "    --list           print the expanded index/label/seed table, run nothing\n"
               "    --quiet          suppress the summary table on stdout\n"
               "    --metrics FILE   write per-run metrics summaries as JSON; sampled\n"
               "                     timeseries go to FILE's '.timeseries.csv' sibling\n"
               "    --trace FILE     write a Chrome trace-event JSON flight recording\n"
               "                     (load in Perfetto; pid = scenario index)\n"
               "    --sample-interval S  metrics sampling period in sim seconds (default 1)\n"
               "  speakup dispatch <scenarios.json> --out FILE [options]\n"
               "                                           fault-tolerant multi-worker sweep\n"
               "    --workers N      worker subprocesses to keep alive (default 4)\n"
               "    --slices M       shard slices to cut the sweep into (default 4*N)\n"
               "    --retries K      extra attempts per slice after a worker loss (default 2)\n"
               "    --heartbeat-ms T declare a worker dead after T ms of silence (default 2000)\n"
               "    --status MODE    auto|tty|json progress view (json: one line per event)\n"
               "    --resume         pick up a killed dispatcher's work directory\n"
               "  speakup tournament <spec.json> --out DIR [options]\n"
               "                                           defense x strategy payoff matrix\n"
               "    --jobs N         thread-pool size (default: hardware concurrency)\n"
               "    --expand-only    write DIR/scenarios.json and stop (for shard/dispatch)\n"
               "    --score FILE     score an already-swept results CSV instead of running\n"
               "    --quiet          suppress the pareto report on stdout\n"
               "  speakup merge --out FILE <shard.csv>...  merge sharded CSVs and their records\n"
               "  speakup report <scenarios.json> [--jobs N]\n"
               "                                           run a file and print the paper\n"
               "                                           figure its \"report\" key names\n"
               "                                           (SPEAKUP_FULL=1: paper-length runs)\n"
               "  speakup validate <scenarios.json>        parse + list expanded scenarios\n"
               "  speakup defenses                         list registered defense names\n"
               "  speakup strategies                       list registered workload strategies\n"
               "\n"
               "docs: docs/cli.md, docs/scenario_format.md\n");
  return to == stdout ? 0 : 2;
}

bool parse_shard(const std::string& arg, int& index, int& count) {
  const std::size_t slash = arg.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= arg.size()) return false;
  const std::string left = arg.substr(0, slash);
  const std::string right = arg.substr(slash + 1);
  try {
    std::size_t li = 0, ri = 0;
    index = std::stoi(left, &li);
    count = std::stoi(right, &ri);
    // Reject trailing garbage ("1.9/2" must not run as shard 1/2).
    if (li != left.size() || ri != right.size()) return false;
  } catch (const std::exception&) {
    return false;
  }
  return count >= 1 && index >= 0 && index < count;
}

int parse_int_arg(const char* name, const std::string& text) {
  std::size_t pos = 0;
  int v = 0;
  try {
    v = std::stoi(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (text.empty() || pos != text.size()) {
    throw std::runtime_error(std::string(name) + " wants an integer (got '" + text +
                             "')");
  }
  return v;
}

/// A missing file reads as "" when `missing_ok`, and is an error otherwise.
std::string read_file(const std::string& path, bool missing_ok = false) {
  std::ifstream in(path, std::ios::binary);
  if (!in && missing_ok) return {};
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
  out << content;
}

/// The writer's results CSV and records file, as written to disk.
std::pair<std::string, std::string> result_files(const exp::ResultWriter& writer) {
  std::ostringstream csv;
  std::ostringstream records;
  writer.write_csv(csv);
  writer.write_records(records);
  return {csv.str(), records.str()};
}

int cmd_run(const std::vector<std::string>& args) {
  std::string scenario_path, out_csv;
  std::string metrics_path, trace_path;
  double sample_interval_s = 1.0;
  int jobs = 0;
  int shard_index = 0, shard_count = 1;
  bool quiet = false;
  bool resume = false;
  bool list_only = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        throw std::runtime_error("option " + a + " needs a value");
      }
      return args[++i];
    };
    if (a == "--out") {
      out_csv = value();
    } else if (a == "--jobs") {
      jobs = parse_int_arg("--jobs", value());
      if (jobs < 1) throw std::runtime_error("--jobs must be >= 1");
    } else if (a == "--shard") {
      if (!parse_shard(value(), shard_index, shard_count)) {
        throw std::runtime_error("--shard wants i/M with 0 <= i < M (got '" +
                                 args[i] + "')");
      }
    } else if (a == "--resume") {
      resume = true;
    } else if (a == "--list") {
      list_only = true;
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "--metrics") {
      metrics_path = value();
    } else if (a == "--trace") {
      trace_path = value();
    } else if (a == "--sample-interval") {
      const std::string& text = value();
      std::size_t pos = 0;
      try {
        sample_interval_s = std::stod(text, &pos);
      } catch (const std::exception&) {
        pos = 0;
      }
      if (text.empty() || pos != text.size() || sample_interval_s <= 0.0) {
        throw std::runtime_error("--sample-interval wants a positive number (got '" +
                                 text + "')");
      }
    } else if (!a.empty() && a[0] == '-') {
      throw std::runtime_error("unknown option '" + a + "' for run");
    } else if (scenario_path.empty()) {
      scenario_path = a;
    } else {
      throw std::runtime_error("run takes exactly one scenario file");
    }
  }
  if (scenario_path.empty()) throw std::runtime_error("run needs a scenario file");
  if (resume && out_csv.empty()) {
    throw std::runtime_error("--resume needs --out FILE (the CSV to resume into)");
  }
  const std::string out_records =
      out_csv.empty() ? "" : exp::ResultWriter::records_path(out_csv);

  const exp::ScenarioFile file = exp::load_scenario_file(scenario_path);
  std::vector<exp::LabeledScenario> slice = file.shard(shard_index, shard_count);

  // --list: show exactly what would run (the dispatcher cuts slices with
  // the same expansion + shard math, so this is the slice debugger too).
  if (list_only) {
    std::printf("index\tlabel\tdefense\tstrategies\tseed\tcapacity_rps\tduration_s\n");
    for (const exp::LabeledScenario& s : slice) {
      std::printf("%zu\t%s\t%s\t%s\t%llu\t%s\t%s\n", s.index, s.label.c_str(),
                  s.config.defense.c_str(), s.config.strategy_names().c_str(),
                  static_cast<unsigned long long>(s.config.seed),
                  util::json::number_to_string(s.config.capacity_rps).c_str(),
                  util::json::number_to_string(s.config.duration.sec()).c_str());
    }
    return 0;
  }

  // --resume: drop the indices an earlier (interrupted) run already
  // completed in both files; failed and partly written rows are dropped
  // from the baseline so their scenarios re-run. The merged output below is
  // byte-identical to an uninterrupted run because per-scenario rows are
  // deterministic.
  exp::ResultWriter::ResumeInfo resumed;
  std::size_t skipped = 0;
  if (resume) {
    resumed = exp::ResultWriter::resume_info(read_file(out_csv, true),
                                             read_file(out_records, true));
    // The existing CSV must come from this scenario file: every completed
    // (index, label) pair has to match the file's expansion.
    std::vector<char> done(file.scenarios.size(), 0);
    for (const auto& [index, label] : resumed.completed) {
      if (index >= file.scenarios.size() || file.scenarios[index].label != label) {
        throw std::runtime_error(
            "--resume: '" + out_csv + "' row " + std::to_string(index) + " ('" +
            label + "') does not match " + scenario_path +
            " — it was written from a different scenario file");
      }
      done[index] = 1;
    }
    const std::size_t before = slice.size();
    std::erase_if(slice, [&](const exp::LabeledScenario& s) { return done[s.index] != 0; });
    skipped = before - slice.size();
  }

  if (!quiet) {
    std::printf("%s: %zu scenario(s)", scenario_path.c_str(), file.scenarios.size());
    if (shard_count > 1) {
      std::printf(", shard %d/%d runs %zu", shard_index, shard_count, slice.size());
    }
    if (skipped > 0) {
      std::printf(", resume skips %zu done, %zu to run", skipped, slice.size());
    }
    if (!file.description.empty()) std::printf(" — %s", file.description.c_str());
    std::printf("\n");
  }

  exp::Runner runner;
  exp::ScenarioFile::queue_on(runner, slice);
  if (!metrics_path.empty() || !trace_path.empty()) {
    obs::Observer::Options opts;
    opts.metrics = !metrics_path.empty();
    opts.trace = !trace_path.empty();
    opts.sample_interval = Duration::seconds(sample_interval_s);
    runner.set_observability(opts);
    std::vector<std::size_t> indices;
    indices.reserve(slice.size());
    for (const exp::LabeledScenario& s : slice) indices.push_back(s.index);
    runner.set_telemetry_indices(std::move(indices));
  }
  runner.run_all(jobs);

  exp::ResultWriter writer;
  int failures = 0;
  for (std::size_t i = 0; i < runner.outcomes().size(); ++i) {
    const exp::RunOutcome& o = runner.outcomes()[i];
    writer.add(slice[i].index, o);
    if (!o.ok()) {
      ++failures;
      std::fprintf(stderr, "scenario '%s' failed: %s\n", o.label.c_str(),
                   o.error.c_str());
    }
  }

  if (!out_csv.empty()) {
    auto [csv, records] = result_files(writer);
    if (resume) {
      csv = exp::ResultWriter::merge_csv({resumed.completed_csv, csv});
      records = exp::ResultWriter::merge_csv({resumed.completed_records, records});
    }
    write_file(out_csv, csv);
    write_file(out_records, records);
    if (!quiet) std::printf("wrote %s and %s\n", out_csv.c_str(), out_records.c_str());
  }
  // Telemetry assembly happens here, in job order, so the files are
  // byte-identical for any --jobs value.
  if (!metrics_path.empty()) {
    util::json::Value doc{util::json::Value::Object{}};
    doc.set("version", 1);
    doc.set("sample_interval_s", sample_interval_s);
    util::json::Value runs{util::json::Value::Array{}};
    std::string timeseries = "index,label,metric,time_s,value\n";
    for (std::size_t i = 0; i < runner.outcomes().size(); ++i) {
      const exp::RunOutcome& o = runner.outcomes()[i];
      if (!o.ok() || o.telemetry.metrics_json.empty()) continue;
      util::json::Value r{util::json::Value::Object{}};
      r.set("index", static_cast<std::int64_t>(slice[i].index));
      r.set("label", o.label);
      r.set("metrics", util::json::parse(o.telemetry.metrics_json));
      runs.push_back(std::move(r));
      timeseries += o.telemetry.timeseries_csv;
    }
    doc.set("runs", std::move(runs));
    write_file(metrics_path, doc.dump(2) + "\n");
    // The sampled timeseries ride beside the summary: "<FILE minus .json>
    // .timeseries.csv".
    std::string ts_path = metrics_path;
    if (ts_path.size() > 5 && ts_path.ends_with(".json")) {
      ts_path.resize(ts_path.size() - 5);
    }
    ts_path += ".timeseries.csv";
    write_file(ts_path, timeseries);
    if (!quiet) std::printf("wrote %s and %s\n", metrics_path.c_str(), ts_path.c_str());
  }
  if (!trace_path.empty()) {
    std::string trace = "{\"traceEvents\":[\n";
    bool first = true;
    for (const exp::RunOutcome& o : runner.outcomes()) {
      if (o.telemetry.trace_json.empty()) continue;
      if (!first) trace += ",\n";
      first = false;
      trace += o.telemetry.trace_json;
    }
    trace += "\n],\"displayTimeUnit\":\"ms\"}\n";
    write_file(trace_path, trace);
    if (!quiet) std::printf("wrote %s\n", trace_path.c_str());
  }
  if (!quiet) runner.summary_table().print(std::cout);
  return failures == 0 ? 0 : 1;
}

// `speakup tournament spec.json --out DIR`: expand the defense x strategy
// cross-product into DIR/scenarios.json, sweep it (unless --expand-only or
// --score), and score the results into DIR/payoff.{csv,json} + pareto.txt.
// The expansion is an ordinary scenario file, so large tournaments can run
// it through `run --shard`/`dispatch`, merge, and feed the merged CSV back
// via --score — byte-identical to the single-process path.
int cmd_tournament(const std::vector<std::string>& args) {
  std::string spec_path, out_dir, score_csv;
  int jobs = 0;
  bool quiet = false;
  bool expand_only = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        throw std::runtime_error("option " + a + " needs a value");
      }
      return args[++i];
    };
    if (a == "--out") {
      out_dir = value();
    } else if (a == "--jobs") {
      jobs = parse_int_arg("--jobs", value());
      if (jobs < 1) throw std::runtime_error("--jobs must be >= 1");
    } else if (a == "--expand-only") {
      expand_only = true;
    } else if (a == "--score") {
      score_csv = value();
    } else if (a == "--quiet") {
      quiet = true;
    } else if (!a.empty() && a[0] == '-') {
      throw std::runtime_error("unknown option '" + a + "' for tournament");
    } else if (spec_path.empty()) {
      spec_path = a;
    } else {
      throw std::runtime_error("tournament takes exactly one spec file");
    }
  }
  if (spec_path.empty()) throw std::runtime_error("tournament needs a spec file");
  if (out_dir.empty()) {
    throw std::runtime_error("tournament needs --out DIR (the output directory)");
  }
  if (expand_only && !score_csv.empty()) {
    throw std::runtime_error("--expand-only and --score are mutually exclusive");
  }

  const exp::TournamentSpec spec = exp::load_tournament_spec(spec_path);
  const std::string scenarios = exp::tournament_scenarios_json(spec);
  if (::mkdir(out_dir.c_str(), 0777) != 0 && errno != EEXIST) {
    throw std::runtime_error("cannot create output directory '" + out_dir + "'");
  }
  write_file(out_dir + "/scenarios.json", scenarios);
  if (!quiet) {
    std::printf("%s: %zu defense(s) x %zu strategy(s) = %zu cell(s); wrote "
                "%s/scenarios.json\n",
                spec_path.c_str(), spec.defenses.size(), spec.strategies.size(),
                spec.defenses.size() * spec.strategies.size(), out_dir.c_str());
  }
  if (expand_only) return 0;

  std::string results_csv;
  if (!score_csv.empty()) {
    results_csv = read_file(score_csv);
  } else {
    const exp::ScenarioFile file = exp::parse_scenario_file(scenarios);
    exp::Runner runner;
    file.queue_on(runner);
    runner.run_all(jobs);
    exp::ResultWriter writer;
    for (std::size_t i = 0; i < runner.outcomes().size(); ++i) {
      const exp::RunOutcome& o = runner.outcomes()[i];
      writer.add(file.scenarios[i].index, o);
      if (!o.ok()) {
        std::fprintf(stderr, "cell '%s' failed: %s\n", o.label.c_str(),
                     o.error.c_str());
      }
    }
    std::string records;
    std::tie(results_csv, records) = result_files(writer);
    write_file(out_dir + "/results.csv", results_csv);
    write_file(out_dir + "/results.records.csv", records);
    if (!quiet) std::printf("wrote %s/results.csv and results.records.csv\n", out_dir.c_str());
  }

  // score_tournament throws (exit 2) when any cell failed or is missing.
  const exp::PayoffMatrix matrix = exp::score_tournament(spec, results_csv);
  write_file(out_dir + "/payoff.csv", exp::payoff_csv(matrix));
  write_file(out_dir + "/payoff.json", exp::payoff_json(matrix));
  const std::string report = exp::pareto_report(matrix);
  write_file(out_dir + "/pareto.txt", report);
  if (!quiet) {
    std::printf("wrote %s/payoff.csv, payoff.json, pareto.txt\n", out_dir.c_str());
    std::fputs(report.c_str(), stdout);
  }
  return 0;
}

// `speakup merge --out FILE a.csv b.csv`: stitches shard CSVs, and the
// records files beside them, into the unsharded pair. Inputs must all have
// a records file or all lack one; to stdout (no --out) only the CSV goes.
int cmd_merge(const std::vector<std::string>& args) {
  std::string out_path;
  std::vector<std::string> inputs;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--out") {
      if (i + 1 >= args.size()) throw std::runtime_error("--out needs a value");
      out_path = args[++i];
    } else if (!args[i].empty() && args[i][0] == '-') {
      throw std::runtime_error("unknown option '" + args[i] + "' for merge");
    } else {
      inputs.push_back(args[i]);
    }
  }
  if (inputs.empty()) throw std::runtime_error("merge needs at least one shard CSV");
  std::vector<std::string> csvs;
  std::vector<std::string> records;
  std::vector<std::string> records_names;
  std::string lacking;  // inputs without a records file, for the diagnostic
  for (const std::string& p : inputs) {
    csvs.push_back(read_file(p));
    const std::string rp = exp::ResultWriter::records_path(p);
    if (::access(rp.c_str(), F_OK) == 0) {
      records.push_back(read_file(rp));
      records_names.push_back(rp);
    } else {
      lacking += (lacking.empty() ? "'" : ", '") + p + "'";
    }
  }
  if (!records.empty() && !lacking.empty()) {
    throw std::runtime_error("no records file beside " + lacking +
                             ", but the other inputs have one; merge inputs that all "
                             "have one or all lack one");
  }
  // File names ride along so a duplicate-index rejection can say which
  // input(s) carry the colliding row.
  const std::string merged = exp::ResultWriter::merge_csv(csvs, inputs);
  const std::string merged_records =
      records.empty() ? "" : exp::ResultWriter::merge_csv(records, records_names);
  if (out_path.empty() || out_path == "-") {
    std::fputs(merged.c_str(), stdout);
    return 0;
  }
  write_file(out_path, merged);
  if (!records.empty()) {
    write_file(exp::ResultWriter::records_path(out_path), merged_records);
  }
  std::printf("merged %zu file(s) into %s%s\n", inputs.size(), out_path.c_str(),
              records.empty() ? "" : " and its records file");
  return 0;
}

/// The path to re-spawn ourselves as `speakup worker` processes.
std::string self_exe(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

int cmd_dispatch(const std::vector<std::string>& args, const char* argv0) {
  exp::DispatchOptions opts;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        throw std::runtime_error("option " + a + " needs a value");
      }
      return args[++i];
    };
    if (a == "--out") {
      opts.out_csv = value();
    } else if (a == "--workers") {
      opts.workers = parse_int_arg("--workers", value());
      if (opts.workers < 1) throw std::runtime_error("--workers must be >= 1");
    } else if (a == "--slices") {
      opts.slices = parse_int_arg("--slices", value());
      if (opts.slices < 1) throw std::runtime_error("--slices must be >= 1");
    } else if (a == "--retries") {
      opts.retries = parse_int_arg("--retries", value());
      if (opts.retries < 0) throw std::runtime_error("--retries must be >= 0");
    } else if (a == "--heartbeat-ms") {
      opts.heartbeat_ms = parse_int_arg("--heartbeat-ms", value());
      if (opts.heartbeat_ms < 50) {
        throw std::runtime_error("--heartbeat-ms must be >= 50");
      }
    } else if (a == "--status") {
      const std::string& mode = value();
      if (mode == "auto") opts.status = exp::DispatchOptions::Status::kAuto;
      else if (mode == "tty") opts.status = exp::DispatchOptions::Status::kTty;
      else if (mode == "json") opts.status = exp::DispatchOptions::Status::kJson;
      else throw std::runtime_error("--status wants auto, tty, or json (got '" + mode + "')");
    } else if (a == "--resume") {
      opts.resume = true;
    } else if (!a.empty() && a[0] == '-') {
      throw std::runtime_error("unknown option '" + a + "' for dispatch");
    } else if (opts.scenario_path.empty()) {
      opts.scenario_path = a;
    } else {
      throw std::runtime_error("dispatch takes exactly one scenario file");
    }
  }
  if (opts.scenario_path.empty()) {
    throw std::runtime_error("dispatch needs a scenario file");
  }
  if (opts.out_csv.empty()) {
    throw std::runtime_error("dispatch needs --out FILE (the merged CSV destination)");
  }
  opts.exe = self_exe(argv0);
  const exp::DispatchReport report = exp::dispatch_sweep(opts);
  for (const std::string& f : report.failures) {
    std::fprintf(stderr, "dispatch: %s\n", f.c_str());
  }
  // Mirror `run`: scenario-level failures (error rows in the CSV) exit 1,
  // as does a sweep that could not complete every slice.
  return report.ok && report.rows_failed == 0 ? 0 : 1;
}

int cmd_worker(const std::vector<std::string>& args) {
  if (args.size() != 3) {
    throw std::runtime_error(
        "worker is internal to dispatch: "
        "speakup worker <scenarios.json> <workdir> <heartbeat-ms>");
  }
  return exp::run_worker(args[0], args[1], parse_int_arg("heartbeat-ms", args[2]));
}

int cmd_validate(const std::vector<std::string>& args) {
  if (args.size() != 1) throw std::runtime_error("validate takes one scenario file");
  // Auction-game grids and tournament specs validate through their own loaders; a
  // tournament spec is also expanded and re-validated as a scenario file.
  const std::string kind = exp::file_kind(args[0]);
  if (kind == "auction_game") {
    const exp::AuctionGameSpec spec = exp::load_auction_game_file(args[0]);
    std::printf("%s: OK, auction-game grid — %zu eps x %zu delta x %zu "
                "adversary = %zu cell(s)\n",
                args[0].c_str(), spec.eps.size(), spec.delta.size(),
                spec.adversaries.size(),
                spec.eps.size() * spec.delta.size() * spec.adversaries.size());
    if (!spec.description.empty()) {
      std::printf("description: %s\n", spec.description.c_str());
    }
    for (const std::string& name : spec.adversaries) {
      std::printf("  adversary %s\n", name.c_str());
    }
    return 0;
  }
  if (kind == "tournament") {
    const exp::TournamentSpec spec = exp::load_tournament_spec(args[0]);
    const exp::ScenarioFile grid =
        exp::parse_scenario_file(exp::tournament_scenarios_json(spec));
    std::printf("%s: OK, tournament spec — %zu defense(s) x %zu strategy(s) = "
                "%zu cell(s)\n",
                args[0].c_str(), spec.defenses.size(), spec.strategies.size(),
                grid.scenarios.size());
    if (!spec.description.empty()) {
      std::printf("description: %s\n", spec.description.c_str());
    }
    for (const exp::LabeledScenario& s : grid.scenarios) {
      std::printf("  [%zu] %s\n", s.index, s.label.c_str());
    }
    return 0;
  }
  const exp::ScenarioFile file = exp::load_scenario_file(args[0]);
  std::printf("%s: OK, %zu scenario(s)\n", args[0].c_str(), file.scenarios.size());
  if (!file.description.empty()) std::printf("description: %s\n", file.description.c_str());
  for (const exp::LabeledScenario& s : file.scenarios) {
    std::printf("  [%zu] %s  (defense=%s seed=%llu capacity=%g duration=%gs)\n",
                s.index, s.label.c_str(), s.config.defense.c_str(),
                static_cast<unsigned long long>(s.config.seed), s.config.capacity_rps,
                s.config.duration.sec());
  }
  return 0;
}

// `speakup report scenarios/fig3.json --jobs 4`: run the file and print the
// paper figure its "report" key names (exp/report.hpp).
int cmd_report(const std::vector<std::string>& args) {
  std::string path;
  int jobs = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--jobs") {
      if (i + 1 >= args.size()) throw std::runtime_error("option --jobs needs a value");
      jobs = parse_int_arg("--jobs", args[++i]);
      if (jobs < 1) throw std::runtime_error("--jobs must be >= 1");
    } else if (!args[i].empty() && args[i][0] == '-') {
      throw std::runtime_error("unknown option '" + args[i] + "' for report");
    } else if (path.empty()) {
      path = args[i];
    } else {
      throw std::runtime_error("report takes exactly one scenario file");
    }
  }
  if (path.empty()) throw std::runtime_error("report needs a scenario file");
  exp::write_report(path, jobs, std::cout);
  return 0;
}

int cmd_defenses() {
  for (const std::string& name : core::FrontEndFactory::instance().names()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

int cmd_strategies() {
  for (const std::string& name : client::StrategyFactory::instance().names()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(stderr);
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "run") return cmd_run(args);
    if (cmd == "tournament") return cmd_tournament(args);
    if (cmd == "dispatch") return cmd_dispatch(args, argv[0]);
    if (cmd == "worker") return cmd_worker(args);
    if (cmd == "merge") return cmd_merge(args);
    if (cmd == "validate") return cmd_validate(args);
    if (cmd == "report") return cmd_report(args);
    if (cmd == "defenses") return cmd_defenses();
    if (cmd == "strategies") return cmd_strategies();
    if (cmd == "help" || cmd == "--help" || cmd == "-h") return usage(stdout);
    std::fprintf(stderr, "speakup: unknown command '%s'\n\n", cmd.c_str());
    return usage(stderr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "speakup %s: %s\n", cmd.c_str(), e.what());
    return 2;
  }
}
