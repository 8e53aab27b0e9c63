// `speakup dispatch` — the fault-tolerant multi-worker sweep fabric.
//
// The Dispatcher is the coordinator the ROADMAP's cluster-scale item asks
// for: it expands a scenario file into M shard slices (exp::WorkQueue),
// spawns N `speakup worker` subprocesses, and drives a pull-based
// work-stealing loop over a line protocol on the workers' stdin/stdout
// pipes. Workers heartbeat while running; a worker that exits or goes
// silent past the heartbeat timeout is killed and its in-flight slice is
// requeued (up to `--retries` extra attempts). Each slice leaves a CSV and
// a records file; once every slice is done they are merged through
// ResultWriter::merge_csv, so the final `--out` file and its records file
// are byte-identical to a single-process `speakup run` — under
// worker crashes, heartbeat stalls, and a dispatcher kill + `--resume`
// restart alike (tests/dispatch_test.cpp injects all three). Protocol and
// failure semantics are documented in docs/cli.md.
#pragma once

#include <string>
#include <vector>

namespace speakup::exp {

struct DispatchOptions {
  std::string scenario_path;
  std::string out_csv;  // merged CSV destination (required); records go beside it
  std::string exe;      // speakup binary to spawn `worker` processes from
  int workers = 4;
  int slices = 0;       // 0 -> min(4 * workers, scenario count)
  int retries = 2;      // extra attempts per slice after a worker loss
  int heartbeat_ms = 2000;  // declare a worker dead after this much silence
  enum class Status {
    kAuto,  // tty view on a terminal, plain per-event lines otherwise
    kTty,   // live single-line progress on stderr
    kJson,  // machine-readable JSON lines on stdout (CI)
  };
  Status status = Status::kAuto;
  bool resume = false;  // pick up a killed dispatcher's work directory
};

struct DispatchReport {
  bool ok = false;  // every slice completed; out_csv was written
  std::size_t rows_total = 0;
  std::size_t rows_failed = 0;  // scenario rows that carry an error column
  int slices_total = 0;
  int slices_resumed = 0;  // validated --resume artifacts, not re-run
  int workers_spawned = 0;
  int worker_deaths = 0;  // crashes + heartbeat timeouts
  int requeues = 0;
  std::vector<std::string> failures;  // permanent slice failures
};

/// Runs one dispatched sweep to completion (blocking). Throws
/// std::runtime_error on configuration errors (bad scenario file, missing
/// work directory on --resume, ...); worker-level trouble is handled by
/// retry and surfaced in the report instead.
[[nodiscard]] DispatchReport dispatch_sweep(const DispatchOptions& opts);

/// The worker half: `speakup worker SCENARIO WORKDIR HEARTBEAT_MS`.
/// Reads `slice <i> <M>` commands on stdin, runs each slice scenario by
/// scenario, heartbeats on stdout, writes the slice CSV atomically into
/// WORKDIR, and reports `done`/`fail`. Returns the process exit code.
int run_worker(const std::string& scenario_path, const std::string& work_dir,
               int heartbeat_ms);

/// The work directory `speakup dispatch --out OUT` journals into.
[[nodiscard]] std::string dispatch_work_dir(const std::string& out_csv);

}  // namespace speakup::exp
