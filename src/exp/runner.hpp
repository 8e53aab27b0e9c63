// Batch experiment runner: the one sweep loop everything shares.
//
// Every figure and table in the paper is a sweep — over the good-bandwidth
// fraction, the capacity, the POST size, the defense mode. Runner collects
// labeled ScenarioConfigs, executes them on a thread pool (scenarios are
// fully independent: each Experiment owns its event loop and every RNG
// stream derives from the scenario seed), and returns results in insertion
// order regardless of the thread schedule, so parallel runs are
// bit-identical to serial ones.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/scenario.hpp"
#include "obs/observer.hpp"
#include "stats/table.hpp"

namespace speakup::exp {

/// Per-run observability output, rendered inside the worker so assembly by
/// the caller is pure string concatenation in job-index order (and thus
/// deterministic across thread counts). All fields empty when
/// observability is off.
struct RunTelemetry {
  std::string metrics_json;    // this run's metrics summary (one JSON object)
  std::string timeseries_csv;  // "index,label,metric,time_s,value" rows, no header
  std::string trace_json;      // Chrome trace event objects, comma-separated,
                               // pid = this run's job index
};

struct RunOutcome {
  std::string label;
  ScenarioConfig config;
  ExperimentResult result;
  RunTelemetry telemetry;
  std::string error;  // non-empty when the scenario threw
  [[nodiscard]] bool ok() const { return error.empty(); }
};

class Runner {
 public:
  Runner() = default;

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// Queues one scenario. An empty label defaults to "<defense>/<index>".
  /// Labels must be unique (result() looks them up).
  Runner& add(ScenarioConfig cfg, std::string label = "");

  [[nodiscard]] std::size_t size() const { return jobs_.size(); }

  /// Attaches an obs::Observer with these options to every run; each
  /// outcome's `telemetry` then carries that run's rendered output.
  /// Scenario results — including fingerprints — are identical with or
  /// without observability (the probes only read, and sampling adds no
  /// events). Call before run_all.
  Runner& set_observability(const obs::Observer::Options& opts);

  /// External indices stamped into telemetry output (trace pid, timeseries
  /// rows) — e.g. global scenario indices when running a shard. Defaults to
  /// the job position. Size must equal size() when run_all is called.
  Runner& set_telemetry_indices(std::vector<std::size_t> indices);

  /// Runs every queued scenario and returns the outcomes in insertion
  /// order. `n_threads` <= 0 means hardware concurrency. Callable once.
  const std::vector<RunOutcome>& run_all(int n_threads = 0);

  /// Outcomes of the completed run (run_all must have been called).
  [[nodiscard]] const std::vector<RunOutcome>& outcomes() const;
  [[nodiscard]] const RunOutcome& outcome(std::string_view label) const;
  /// Shorthand for outcome(label).result; throws if that scenario failed.
  [[nodiscard]] const ExperimentResult& result(std::string_view label) const;

  /// One row per outcome: label, defense, served counts, allocations, the
  /// fraction-served metric, and run metadata.
  [[nodiscard]] stats::Table summary_table() const;

 private:
  struct Job {
    std::string label;
    ScenarioConfig config;
  };

  std::vector<Job> jobs_;
  std::vector<RunOutcome> outcomes_;
  obs::Observer::Options obs_opts_{};
  std::vector<std::size_t> telemetry_indices_;
  bool obs_enabled_ = false;
  bool ran_ = false;
};

}  // namespace speakup::exp
