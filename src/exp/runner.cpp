#include "exp/runner.hpp"

#include <atomic>
#include <thread>

#include "util/assert.hpp"

namespace speakup::exp {

Runner& Runner::add(ScenarioConfig cfg, std::string label) {
  util::require(!ran_, "Runner: cannot add scenarios after run_all");
  if (label.empty()) {
    label = cfg.defense_name() + "/" + std::to_string(jobs_.size());
  }
  for (const Job& j : jobs_) {
    util::require(j.label != label, "Runner: duplicate label '" + label + "'");
  }
  jobs_.push_back(Job{std::move(label), std::move(cfg)});
  return *this;
}

Runner& Runner::set_observability(const obs::Observer::Options& opts) {
  util::require(!ran_, "Runner: set_observability before run_all");
  obs_opts_ = opts;
  obs_enabled_ = opts.metrics || opts.trace;
  return *this;
}

Runner& Runner::set_telemetry_indices(std::vector<std::size_t> indices) {
  util::require(!ran_, "Runner: set_telemetry_indices before run_all");
  telemetry_indices_ = std::move(indices);
  return *this;
}

const std::vector<RunOutcome>& Runner::run_all(int n_threads) {
  util::require(!ran_, "Runner::run_all is callable once");
  util::require(telemetry_indices_.empty() || telemetry_indices_.size() == jobs_.size(),
                "Runner: telemetry indices must cover every job");
  ran_ = true;
  if (n_threads <= 0) {
    n_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (n_threads <= 0) n_threads = 1;
  }
  n_threads = std::min<int>(n_threads, static_cast<int>(jobs_.size()));
  outcomes_.resize(jobs_.size());

  // Scenarios are independent (own event loop, seed-derived RNG streams),
  // so a shared work queue is enough; outcomes land at their job's index,
  // which keeps result order — and results themselves — identical to a
  // serial run.
  std::atomic<std::size_t> next{0};
  auto worker = [this, &next] {
    for (std::size_t i = next.fetch_add(1); i < jobs_.size(); i = next.fetch_add(1)) {
      RunOutcome& out = outcomes_[i];
      out.label = jobs_[i].label;
      out.config = jobs_[i].config;
      try {
        if (obs_enabled_) {
          const std::size_t ext =
              telemetry_indices_.empty() ? i : telemetry_indices_[i];
          Experiment e(jobs_[i].config);
          obs::Observer ob(e.loop(), obs_opts_);
          out.result = e.run();
          ob.finish();
          if (ob.metrics_enabled()) {
            out.telemetry.metrics_json = ob.metrics().summary_json().dump();
            ob.metrics().append_timeseries_csv(
                out.telemetry.timeseries_csv,
                std::to_string(ext) + ',' + out.label + ',');
          }
          if (ob.trace_enabled()) {
            bool first = true;
            ob.tracer().append_chrome_events(out.telemetry.trace_json,
                                             static_cast<int>(ext), first);
          }
        } else {
          out.result = run_scenario(jobs_[i].config);
        }
      } catch (const std::exception& e) {
        out.error = e.what();
      } catch (...) {
        out.error = "unknown exception";
      }
    }
  };

  if (n_threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(n_threads));
    for (int t = 0; t < n_threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  return outcomes_;
}

const std::vector<RunOutcome>& Runner::outcomes() const {
  util::require(ran_, "Runner: call run_all first");
  return outcomes_;
}

const RunOutcome& Runner::outcome(std::string_view label) const {
  util::require(ran_, "Runner: call run_all first");
  for (const RunOutcome& o : outcomes_) {
    if (o.label == label) return o;
  }
  throw std::invalid_argument("Runner: no scenario labeled '" + std::string(label) + "'");
}

const ExperimentResult& Runner::result(std::string_view label) const {
  const RunOutcome& o = outcome(label);
  util::require(o.ok(), "Runner: scenario '" + o.label + "' failed: " + o.error);
  return o.result;
}

stats::Table Runner::summary_table() const {
  util::require(ran_, "Runner: call run_all first");
  stats::Table table({"label", "defense", "served", "alloc(good)", "alloc(bad)",
                      "frac-good-served", "sim-s", "wall-s"});
  for (const RunOutcome& o : outcomes_) {
    table.row().add(o.label).add(o.config.defense_name());
    if (o.ok()) {
      table.add(o.result.served_total)
          .add(o.result.allocation_good, 3)
          .add(o.result.allocation_bad, 3)
          .add(o.result.fraction_good_served, 3)
          .add(o.result.sim_duration.sec(), 1)
          .add(o.result.wall_seconds, 2);
    } else {
      table.add("FAILED: " + o.error);
    }
  }
  return table;
}

}  // namespace speakup::exp
