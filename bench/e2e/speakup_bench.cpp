// End-to-end benchmark harness: one repetition of one workload per process.
//
// Times, from outside, each public call a sweep makes:
//   expand   exp::load_scenario_file
//   build    the exp::Experiment constructor (per row)
//   run      Experiment::run(); its ExperimentResult::wall_seconds is the
//            event loop ("loop"), the rest of run() is harvest
//   teardown the Experiment destructor (per row)
//   write    exp::ResultWriter CSV to --out
// and samples the process RSS after each build (outside the build span) and
// at exit. With --jobs N rows are pulled in index order by N threads making
// the same two calls per row as exp::Runner::run_all. With --trace-dir every
// row also carries an obs::Observer (metrics + flight recorder), attached the
// way Runner does, and DIR receives <scenario stem>.trace.json (Chrome trace)
// and <scenario stem>.metrics.json (each row's obs metrics summary).
//
// One repetition per process keeps the RSS high-water mark per run. The
// summary goes to stdout as one JSON object; bench/e2e/run.py aggregates.
//
// Usage:
//   speakup_bench --scenario FILE --out CSV [--jobs N] [--seed S] [--trace-dir DIR]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/result_writer.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_io.hpp"
#include "obs/observer.hpp"
#include "util/json.hpp"

namespace speakup {
namespace {

using Clock = std::chrono::steady_clock;
using json = util::json::Value;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A "VmRSS:"/"VmHWM:" line of /proc/self/status, in MB (0 when absent).
double proc_status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

/// Counters and sampled-gauge peaks one traced row contributes.
struct ObsCounts {
  std::int64_t link_enqueues = 0;
  std::int64_t link_drops = 0;
  std::int64_t retransmits = 0;
  std::int64_t rto_backoffs = 0;
  std::int64_t rejections = 0;
  std::int64_t auctions = 0;
  double heap_peak = 0;
  double wheel_peak = 0;
  double pending_peak = 0;
};

struct Row {
  // built: the Experiment constructor returned; done: Experiment destroyed.
  Clock::time_point build_start, built, run_start, run_end, done;
  double loop_s = 0;
  double rss_after_build_mb = 0;
  unsigned thread = 0;
  exp::RunOutcome outcome;
  ObsCounts obs;
  std::string metrics_json;  // traced rows only
  std::string trace_events;  // traced rows only: obs flight-recorder events
};

std::int64_t counter(const json& summary, const char* name) {
  const json* m = summary.find(name);
  const json* v = m != nullptr ? m->find("value") : nullptr;
  return v != nullptr ? v->as_int() : 0;
}

/// Largest sampled value of `gauge` in MetricsRegistry timeseries rows
/// ("<metric>,<time_s>,<value>").
double gauge_peak(const std::string& csv, const std::string& gauge) {
  double peak = 0;
  std::istringstream in(csv);
  std::string line;
  const std::string prefix = gauge + ",";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    peak = std::max(peak, std::strtod(line.c_str() + line.rfind(',') + 1, nullptr));
  }
  return peak;
}

/// Builds and runs one row. The Experiment (and Observer) are destroyed on
/// return, so the caller's clock after this call includes teardown.
void run_experiment(const exp::LabeledScenario& s, bool traced, Row& row) {
  exp::Experiment e(s.config);
  row.built = Clock::now();
  // Read after `built` so the probe is not part of the build time. With
  // several jobs it includes what the other threads hold at that moment.
  row.rss_after_build_mb = proc_status_mb("VmRSS");
  std::optional<obs::Observer> ob;
  if (traced) {
    obs::Observer::Options opts;
    opts.metrics = true;
    opts.trace = true;
    opts.sample_interval = Duration::seconds(0.1);
    opts.trace_capacity = std::size_t{1} << 12;  // latest 4096 events per row
    ob.emplace(e.loop(), opts);
  }
  row.run_start = Clock::now();
  row.outcome.result = e.run();
  row.run_end = Clock::now();
  row.loop_s = row.outcome.result.wall_seconds;
  if (!ob) return;
  ob->finish();
  const json summary = ob->metrics().summary_json();
  row.metrics_json = summary.dump();
  std::string ts;
  ob->metrics().append_timeseries_csv(ts, "");
  row.obs = ObsCounts{counter(summary, "net.link_enqueues"),
                      counter(summary, "net.link_drops"),
                      counter(summary, "tcp.retransmits"),
                      counter(summary, "tcp.rto_backoffs"),
                      counter(summary, "core.rejections"),
                      counter(summary, "core.auctions"),
                      gauge_peak(ts, "sim.heap_size"),
                      gauge_peak(ts, "sim.wheel_size"),
                      gauge_peak(ts, "sim.pending_events")};
  bool first = true;
  ob->tracer().append_chrome_events(row.trace_events, static_cast<int>(s.index) + 1, first);
}

void run_row(const exp::LabeledScenario& s, bool traced, Row& row) {
  row.outcome.label = s.label;
  row.outcome.config = s.config;
  row.build_start = Clock::now();
  row.built = row.run_start = row.run_end = row.build_start;
  try {
    run_experiment(s, traced, row);
  } catch (const std::exception& ex) {
    row.run_end = Clock::now();
    row.outcome.error = ex.what();
  }
  row.done = Clock::now();
}

/// In-memory host-time spans, written as Chrome trace JSON at exit.
class Spans {
 public:
  explicit Spans(Clock::time_point origin) : origin_(origin) {}

  int add(const char* name, Clock::time_point start, Clock::time_point end, int parent,
          unsigned tid, const std::string& label = "") {
    const int id = static_cast<int>(spans_.size()) + 1;
    spans_.push_back(Span{name, label, start, end, id, parent, tid});
    return id;
  }

  void append_chrome_events(std::string& out) const {
    for (const Span& s : spans_) {
      json e{json::Object{}};
      e.set("name", s.name);
      e.set("cat", "bench");
      e.set("ph", "X");
      e.set("pid", 0);
      e.set("tid", static_cast<std::int64_t>(s.tid));
      e.set("ts", us(s.start));
      e.set("dur", us(s.end) - us(s.start));
      json args{json::Object{}};
      args.set("id", s.id);
      args.set("parent", s.parent);
      if (!s.label.empty()) args.set("label", s.label);
      e.set("args", std::move(args));
      if (!out.empty()) out += ",\n";
      out += e.dump();
    }
  }

 private:
  struct Span {
    const char* name;
    std::string label;
    Clock::time_point start, end;
    int id, parent;
    unsigned tid;
  };
  [[nodiscard]] double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

int run(int argc, char** argv) {
  std::string scenario_path, out_csv, trace_dir;
  int jobs = 1;
  std::optional<std::uint64_t> seed;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--scenario") {
      scenario_path = value();
    } else if (arg == "--out") {
      out_csv = value();
    } else if (arg == "--jobs") {
      jobs = std::stoi(value());
    } else if (arg == "--seed") {
      seed = std::stoull(value());
    } else if (arg == "--trace-dir") {
      trace_dir = value();
    } else {
      throw std::runtime_error("unknown argument " + arg);
    }
  }
  if (scenario_path.empty() || out_csv.empty()) {
    throw std::runtime_error("usage: speakup_bench --scenario FILE --out CSV [--jobs N] "
                             "[--seed S] [--trace-dir DIR]");
  }
  if (jobs < 1) throw std::runtime_error("--jobs must be at least 1");
  const bool traced = !trace_dir.empty();

  const Clock::time_point t_start = Clock::now();
  exp::ScenarioFile file = exp::load_scenario_file(scenario_path);
  if (seed) {
    for (exp::LabeledScenario& s : file.scenarios) s.config.seed = *seed;
  }
  const Clock::time_point t_expanded = Clock::now();

  std::vector<Row> rows(file.scenarios.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&](unsigned tid) {
    for (std::size_t i = next.fetch_add(1); i < rows.size(); i = next.fetch_add(1)) {
      rows[i].thread = tid;
      run_row(file.scenarios[i], traced, rows[i]);
    }
  };
  const int n_threads = std::min<int>(jobs, static_cast<int>(rows.size()));
  if (n_threads <= 1) {
    worker(1);
  } else {
    std::vector<std::thread> pool;
    for (int t = 0; t < n_threads; ++t) pool.emplace_back(worker, static_cast<unsigned>(t + 1));
    for (std::thread& t : pool) t.join();
  }
  const Clock::time_point t_ran = Clock::now();

  exp::ResultWriter writer;
  for (std::size_t i = 0; i < rows.size(); ++i) writer.add(file.scenarios[i].index, rows[i].outcome);
  std::ostringstream csv;
  writer.write_csv(csv);
  write_text(out_csv, csv.str());
  const Clock::time_point t_end = Clock::now();

  // --- aggregate --------------------------------------------------------
  double build_s = 0, run_s = 0, loop_s = 0, teardown_s = 0, busy_s = 0, build_rss_mb = 0;
  std::int64_t failed = 0, events = 0, served = 0, retries = 0, pay_total = 0, pay_wasted = 0;
  ObsCounts obs;
  for (const Row& r : rows) {
    build_s += seconds_between(r.build_start, r.built);
    run_s += seconds_between(r.run_start, r.run_end);
    loop_s += r.loop_s;
    teardown_s += seconds_between(r.run_end, r.done);
    busy_s += seconds_between(r.build_start, r.done);
    build_rss_mb = std::max(build_rss_mb, r.rss_after_build_mb);
    if (!r.outcome.ok()) {
      ++failed;
      std::fprintf(stderr, "row '%s' failed: %s\n", r.outcome.label.c_str(),
                   r.outcome.error.c_str());
      continue;
    }
    const exp::ExperimentResult& res = r.outcome.result;
    events += static_cast<std::int64_t>(res.events_executed);
    served += res.served_total;
    for (const exp::GroupResult& g : res.groups) retries += g.totals.retries_sent;
    pay_total += res.thinner.payment_bytes_total;
    pay_wasted += res.thinner.payment_bytes_wasted;
    obs.link_enqueues += r.obs.link_enqueues;
    obs.link_drops += r.obs.link_drops;
    obs.retransmits += r.obs.retransmits;
    obs.rto_backoffs += r.obs.rto_backoffs;
    obs.rejections += r.obs.rejections;
    obs.auctions += r.obs.auctions;
    obs.heap_peak = std::max(obs.heap_peak, r.obs.heap_peak);
    obs.wheel_peak = std::max(obs.wheel_peak, r.obs.wheel_peak);
    obs.pending_peak = std::max(obs.pending_peak, r.obs.pending_peak);
  }
  const double wall_s = seconds_between(t_start, t_end);
  const double peak_rss_mb = proc_status_mb("VmHWM");

  json out{json::Object{}};
  out.set("rows", static_cast<std::int64_t>(rows.size()));
  out.set("failed", failed);
  out.set("jobs", n_threads);
  out.set("traced", traced);
  out.set("wall_s", wall_s);
  out.set("expand_s", seconds_between(t_start, t_expanded));
  out.set("build_s", build_s);
  out.set("run_s", run_s);
  out.set("loop_s", loop_s);
  out.set("harvest_s", run_s - loop_s);
  out.set("teardown_s", teardown_s);
  out.set("write_s", seconds_between(t_ran, t_end));
  out.set("busy_s", busy_s);
  out.set("events", events);
  out.set("build_rss_mb", build_rss_mb);
  out.set("peak_rss_mb", peak_rss_mb);
  out.set("requests_served", served);
  out.set("retries_sent", retries);
  out.set("payment_bytes_total", pay_total);
  out.set("payment_bytes_wasted", pay_wasted);
  if (traced) {
    json o{json::Object{}};
    o.set("link_enqueues", obs.link_enqueues);
    o.set("link_drops", obs.link_drops);
    o.set("retransmits", obs.retransmits);
    o.set("rto_backoffs", obs.rto_backoffs);
    o.set("rejections", obs.rejections);
    o.set("auctions", obs.auctions);
    o.set("heap_peak", obs.heap_peak);
    o.set("wheel_peak", obs.wheel_peak);
    o.set("pending_peak", obs.pending_peak);
    out.set("obs", std::move(o));
  }

  if (traced) {
    const std::filesystem::path dir(trace_dir);
    const std::string stem = std::filesystem::path(scenario_path).stem().string();
    std::filesystem::create_directories(dir);
    // Host-time spans of this process on pid 0: workload -> expand, one
    // span per row (-> build, run -> loop, harvest; teardown), write. Traced rows add
    // their sim-time flight-recorder events under pid = row index + 1.
    Spans spans(t_start);
    const int root = spans.add("workload", t_start, t_end, 0, 0, scenario_path);
    spans.add("expand", t_start, t_expanded, root, 0);
    for (const Row& r : rows) {
      const auto loop_end =
          r.run_start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(r.loop_s));
      const int row = spans.add("row", r.build_start, r.done, root, r.thread,
                                r.outcome.label);
      spans.add("build", r.build_start, r.built, row, r.thread);
      const int run_span = spans.add("run", r.run_start, r.run_end, row, r.thread);
      spans.add("loop", r.run_start, loop_end, run_span, r.thread);
      spans.add("harvest", loop_end, r.run_end, run_span, r.thread);
      spans.add("teardown", r.run_end, r.done, row, r.thread);
    }
    spans.add("write", t_ran, t_end, root, 0);
    std::string events_json;
    spans.append_chrome_events(events_json);
    for (const Row& r : rows) {
      if (r.trace_events.empty()) continue;
      events_json += ",\n" + r.trace_events;
    }
    write_text((dir / (stem + ".trace.json")).string(),
               "{\"traceEvents\":[\n" + events_json + "\n]}\n");

    json runs{json::Array{}};
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].metrics_json.empty()) continue;
      json r{json::Object{}};
      r.set("index", static_cast<std::int64_t>(file.scenarios[i].index));
      r.set("label", rows[i].outcome.label);
      r.set("metrics", util::json::parse(rows[i].metrics_json));
      runs.push_back(std::move(r));
    }
    json doc{json::Object{}};
    doc.set("runs", std::move(runs));
    write_text((dir / (stem + ".metrics.json")).string(), doc.dump(2) + "\n");
  }

  std::printf("%s\n", out.dump().c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace speakup

int main(int argc, char** argv) {
  try {
    return speakup::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "speakup_bench: %s\n", e.what());
    return 2;
  }
}
