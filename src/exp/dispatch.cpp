#include "exp/dispatch.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "exp/result_writer.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_io.hpp"
#include "exp/work_queue.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace speakup::exp {

namespace json = util::json;

namespace {

using Clock = std::chrono::steady_clock;

std::string flatten(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

std::string slice_csv_path(const std::string& work_dir, int slice) {
  return work_dir + "/slice_" + std::to_string(slice) + ".csv";
}

std::string slice_records_path(const std::string& work_dir, int slice) {
  return ResultWriter::records_path(slice_csv_path(work_dir, slice));
}

/// Bytes in `path`; 0 when it does not exist.
off_t file_size(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? st.st_size : 0;
}

std::string read_file_or_empty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Durable file write: tmp file + fsync + atomic rename, so a kill -9 at
/// any instant leaves either the old file or the complete new one — never
/// a truncated slice file for a resumed dispatcher to trip over.
void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp." + std::to_string(getpid());
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write '" + tmp + "'");
  const bool wrote =
      content.empty() || std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const bool flushed = std::fflush(f) == 0 && fsync(fileno(f)) == 0;
  std::fclose(f);
  if (!wrote || !flushed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot write '" + path + "'");
  }
}

// ---------------------------------------------------------------------------
// Fault injection (tests/dispatch_test.cpp and CI only).
//
// SPEAKUP_WORKER_FAULT="kill:<slice>:<token>" makes the first worker that
// is assigned <slice> SIGKILL itself mid-assignment; "stall:..." makes it
// accept the slice and then go silent (no heartbeats) forever. The token
// file is claimed with O_EXCL so exactly one worker triggers the fault —
// the retry then runs clean. SPEAKUP_DISPATCH_FAULT="exit-after-done:<k>"
// makes the dispatcher _Exit(32) right after journaling its k-th completed
// slice, simulating a kill -9 of the coordinator for the --resume tests.
// ---------------------------------------------------------------------------

struct WorkerFault {
  std::string action;  // "kill" | "stall"
  int slice = -1;
  std::string token;
};

std::optional<WorkerFault> worker_fault_from_env() {
  const char* env = std::getenv("SPEAKUP_WORKER_FAULT");
  if (env == nullptr || *env == '\0') return std::nullopt;
  const std::string spec(env);
  const std::size_t c1 = spec.find(':');
  const std::size_t c2 = c1 == std::string::npos ? c1 : spec.find(':', c1 + 1);
  if (c2 == std::string::npos) return std::nullopt;
  WorkerFault f;
  f.action = spec.substr(0, c1);
  try {
    f.slice = std::stoi(spec.substr(c1 + 1, c2 - c1 - 1));
  } catch (const std::exception&) {
    return std::nullopt;
  }
  f.token = spec.substr(c2 + 1);
  return f;
}

/// Claims the fault token; true for exactly one process across the sweep.
bool claim_fault_token(const std::string& token) {
  const int fd = ::open(token.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

int dispatch_fault_after_done() {
  const char* env = std::getenv("SPEAKUP_DISPATCH_FAULT");
  if (env == nullptr) return -1;
  const std::string spec(env);
  const std::string prefix = "exit-after-done:";
  if (spec.rfind(prefix, 0) != 0) return -1;
  try {
    return std::stoi(spec.substr(prefix.size()));
  } catch (const std::exception&) {
    return -1;
  }
}

// ---------------------------------------------------------------------------
// Worker side: `speakup worker SCENARIO WORKDIR HEARTBEAT_MS`.
// ---------------------------------------------------------------------------

/// All worker->dispatcher traffic is whole lines on stdout; the heartbeat
/// thread and the slice loop share this writer.
class LineOut {
 public:
  void emit(const std::string& line) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::fputs(line.c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  }

 private:
  std::mutex mu_;
};

void worker_run_slice(const ScenarioFile& file, int slice_id, int slice_count,
                      const std::string& work_dir, int heartbeat_ms, LineOut& out) {
  try {
    const std::vector<LabeledScenario> slice = file.shard(slice_id, slice_count);
    out.emit("start " + std::to_string(slice_id));

    std::atomic<std::size_t> rows_done{0};
    std::atomic<std::uint64_t> events{0};
    std::mutex mu;
    std::condition_variable cv;
    bool stop = false;
    const auto interval = std::chrono::milliseconds(std::max(10, heartbeat_ms / 3));
    std::thread heartbeat([&] {
      std::unique_lock<std::mutex> lock(mu);
      while (!cv.wait_for(lock, interval, [&] { return stop; })) {
        out.emit("hb " + std::to_string(slice_id) + " " +
                 std::to_string(rows_done.load()) + " " + std::to_string(slice.size()) +
                 " " + std::to_string(events.load()));
      }
    });

    // One scenario at a time: parallelism comes from sibling workers, and
    // per-scenario granularity is what heartbeats report progress in.
    // Scenario-level failures become error rows in the CSV — exactly what
    // a single-process `speakup run` would persist — so a deterministic
    // bad scenario never burns the slice's retry budget.
    ResultWriter writer;
    for (const LabeledScenario& s : slice) {
      Runner runner;
      runner.add(s.config, s.label);
      runner.run_all(1);
      const RunOutcome& o = runner.outcomes()[0];
      writer.add(s.index, o);
      if (o.ok()) events += o.result.events_executed;
      ++rows_done;
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    cv.notify_all();
    heartbeat.join();

    std::ostringstream csv;
    std::ostringstream records;
    writer.write_csv(csv);
    writer.write_records(records);
    write_file_atomic(slice_records_path(work_dir, slice_id), records.str());
    write_file_atomic(slice_csv_path(work_dir, slice_id), csv.str());
    out.emit("done " + std::to_string(slice_id) + " " + std::to_string(slice.size()) +
             " " + std::to_string(events.load()));
  } catch (const std::exception& e) {
    out.emit("fail " + std::to_string(slice_id) + " " + flatten(e.what()));
  }
}

}  // namespace

int run_worker(const std::string& scenario_path, const std::string& work_dir,
               int heartbeat_ms) {
  // The dispatcher may die first; a write to the closed pipe should end
  // this worker quietly via EOF handling, not SIGPIPE noise... except that
  // SIGPIPE death *is* the quiet exit here: default disposition is fine.
  LineOut out;
  ScenarioFile file;
  try {
    file = load_scenario_file(scenario_path);
  } catch (const std::exception& e) {
    out.emit("fail -1 " + flatten(e.what()));
    return 2;
  }
  out.emit("ready");

  const std::optional<WorkerFault> fault = worker_fault_from_env();
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "exit") break;
    int slice_id = -1;
    int slice_count = 0;
    if (std::sscanf(line.c_str(), "slice %d %d", &slice_id, &slice_count) != 2) {
      out.emit("fail -1 unknown command: " + flatten(line));
      return 2;
    }
    if (fault.has_value() && fault->slice == slice_id && claim_fault_token(fault->token)) {
      if (fault->action == "kill") {
        ::raise(SIGKILL);
      } else if (fault->action == "stall") {
        // Accept the slice, then never speak again: the dispatcher's
        // heartbeat timeout has to notice and requeue.
        out.emit("start " + std::to_string(slice_id));
        for (;;) ::pause();
      }
    }
    worker_run_slice(file, slice_id, slice_count, work_dir, heartbeat_ms, out);
  }
  return 0;
}

std::string dispatch_work_dir(const std::string& out_csv) { return out_csv + ".work"; }

// ---------------------------------------------------------------------------
// Dispatcher side.
// ---------------------------------------------------------------------------

namespace {

struct WorkerProc {
  int id = -1;
  pid_t pid = -1;
  int to_fd = -1;    // commands to the worker's stdin
  int from_fd = -1;  // protocol from the worker's stdout
  std::string buf;   // partial-line accumulator
  bool alive = false;
  bool ready = false;
  bool exiting = false;  // `exit` sent; EOF is expected, not a death
  int slice = -1;
  Clock::time_point last_seen;
  // Throughput tracking for the per-worker `metrics` status events: the
  // event/row counts at the last emitted metrics event, and when that was.
  std::uint64_t metric_events = 0;
  std::size_t metric_rows = 0;
  Clock::time_point metric_at;
  bool metric_primed = false;
};

class Dispatcher {
 public:
  explicit Dispatcher(const DispatchOptions& opts) : opts_(opts) {}

  DispatchReport run();

 private:
  enum class View { kTty, kPlain, kJson };

  void prepare_work_dir();
  void validate_resumable_slices();
  void spawn_worker();
  void ensure_workers();
  void pump_assignments();
  void handle_line(WorkerProc& w, const std::string& line);
  void worker_metrics(WorkerProc& w, int slice, std::size_t rows_done,
                      std::size_t rows, std::uint64_t events);
  void worker_gone(WorkerProc& w, const std::string& reason);
  void kill_worker(WorkerProc& w, const std::string& reason);
  void requeue_slice(WorkerProc& w, const std::string& reason);
  void shutdown_workers();
  void finalize();

  // Status plumbing.
  [[nodiscard]] View view() const;
  void event(const std::string& plain_text, json::Value json_event);
  void progress(bool force);
  [[nodiscard]] json::Value progress_json() const;
  [[nodiscard]] std::string progress_tty() const;

  DispatchOptions opts_;
  DispatchReport report_;
  ScenarioFile file_;
  int slice_count_ = 0;
  std::string work_dir_;
  // Expected (index, label) pairs per slice, for --resume validation.
  std::vector<std::vector<std::pair<std::size_t, std::string>>> expected_;
  std::optional<WorkQueue> queue_;
  SliceJournal journal_;
  std::vector<WorkerProc> workers_;
  int spawn_budget_ = 0;
  int fault_after_done_ = -1;
  int done_count_ = 0;
  Clock::time_point started_;
  Clock::time_point last_progress_;
  mutable std::size_t tty_width_ = 0;  // widest \r line yet, for clearing
};

DispatchReport Dispatcher::run() {
  ::signal(SIGPIPE, SIG_IGN);  // dead worker stdin writes return EPIPE instead
  if (opts_.out_csv.empty()) {
    throw std::runtime_error("dispatch needs --out FILE (slice CSVs and the journal "
                             "live next to it)");
  }
  if (opts_.exe.empty()) throw std::runtime_error("dispatch: no worker binary path");
  started_ = Clock::now();
  last_progress_ = started_ - std::chrono::hours(1);
  fault_after_done_ = dispatch_fault_after_done();

  file_ = load_scenario_file(opts_.scenario_path);
  const std::size_t total = file_.scenarios.size();
  report_.rows_total = total;

  slice_count_ = opts_.slices > 0 ? opts_.slices
                                  : 4 * std::max(1, opts_.workers);
  slice_count_ = std::clamp(slice_count_, 1, static_cast<int>(total));
  work_dir_ = dispatch_work_dir(opts_.out_csv);
  prepare_work_dir();
  report_.slices_total = slice_count_;

  expected_.assign(static_cast<std::size_t>(slice_count_), {});
  std::vector<std::size_t> rows_per_slice(static_cast<std::size_t>(slice_count_), 0);
  for (const LabeledScenario& s : file_.scenarios) {
    const std::size_t slice = s.index % static_cast<std::size_t>(slice_count_);
    expected_[slice].emplace_back(s.index, s.label);
    ++rows_per_slice[slice];
  }
  queue_.emplace(std::move(rows_per_slice), 1 + std::max(0, opts_.retries));

  if (opts_.resume) validate_resumable_slices();
  json::Value start;
  start.set("type", "start");
  start.set("scenario", opts_.scenario_path);
  start.set("rows", static_cast<double>(total));
  start.set("slices", slice_count_);
  start.set("workers", opts_.workers);
  start.set("resume", opts_.resume);
  start.set("resumed_slices", report_.slices_resumed);
  event("dispatch: " + opts_.scenario_path + ": " + std::to_string(total) +
            " row(s) in " + std::to_string(slice_count_) + " slice(s), " +
            std::to_string(opts_.workers) + " worker(s)" +
            (report_.slices_resumed > 0
                 ? ", " + std::to_string(report_.slices_resumed) + " slice(s) resumed"
                 : ""),
        std::move(start));

  spawn_budget_ = std::max(1, opts_.workers) +
                  slice_count_ * (1 + std::max(0, opts_.retries));
  ensure_workers();
  pump_assignments();

  const auto heartbeat_timeout = std::chrono::milliseconds(opts_.heartbeat_ms);
  while (!queue_->settled()) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> owner;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (!workers_[i].alive) continue;
      fds.push_back(pollfd{workers_[i].from_fd, POLLIN, 0});
      owner.push_back(i);
    }
    if (fds.empty()) {
      // No live workers but unsettled work: the spawn budget must be
      // spent. Surface every remaining slice as failed so we terminate.
      queue_->fail_pending("no workers left (spawn budget exhausted)");
      for (const Slice& s : queue_->slices()) {
        if (s.state == Slice::State::kFailed && !s.error.empty()) {
          report_.failures.push_back("slice " + std::to_string(s.id) + ": " + s.error);
        }
      }
      break;
    }
    const int n = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 100);
    if (n > 0) {
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        WorkerProc& w = workers_[owner[i]];
        char chunk[4096];
        const ssize_t got = ::read(w.from_fd, chunk, sizeof chunk);
        if (got > 0) {
          w.buf.append(chunk, static_cast<std::size_t>(got));
          std::size_t nl;
          while ((nl = w.buf.find('\n')) != std::string::npos) {
            const std::string line = w.buf.substr(0, nl);
            w.buf.erase(0, nl + 1);
            handle_line(w, line);
          }
        } else {
          worker_gone(w, "worker exited");
        }
      }
    }
    const Clock::time_point now = Clock::now();
    for (WorkerProc& w : workers_) {
      if (w.alive && w.slice >= 0 && now - w.last_seen > heartbeat_timeout) {
        kill_worker(w, "heartbeat timeout (" + std::to_string(opts_.heartbeat_ms) +
                           " ms of silence)");
      }
    }
    ensure_workers();
    pump_assignments();
    progress(false);
  }

  shutdown_workers();
  finalize();
  return report_;
}

void Dispatcher::prepare_work_dir() {
  if (::mkdir(work_dir_.c_str(), 0777) != 0 && errno != EEXIST) {
    throw std::runtime_error("dispatch: cannot create work directory '" + work_dir_ +
                             "'");
  }
  const std::string journal_path = work_dir_ + "/journal";
  if (opts_.resume) {
    const SliceJournal::Header h = SliceJournal::read_header(journal_path);
    if (h.scenario_count != file_.scenarios.size()) {
      throw std::runtime_error(
          "dispatch --resume: journal in '" + work_dir_ + "' was written for " +
          std::to_string(h.scenario_count) + " scenario(s), but '" +
          opts_.scenario_path + "' expands to " +
          std::to_string(file_.scenarios.size()) +
          " — it belongs to a different sweep");
    }
    if (opts_.slices > 0 && opts_.slices != h.slices) {
      throw std::runtime_error("dispatch --resume: journal used --slices " +
                               std::to_string(h.slices) + ", cannot resume with --slices " +
                               std::to_string(opts_.slices));
    }
    slice_count_ = h.slices;
    journal_ = SliceJournal::append_to(journal_path);
    journal_.note("resume");
    return;
  }
  // Fresh dispatch: clear any artifacts from a previous run of this --out.
  if (DIR* dir = ::opendir(work_dir_.c_str())) {
    while (dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name == "journal" || name.rfind("slice_", 0) == 0) {
        ::unlink((work_dir_ + "/" + name).c_str());
      }
    }
    ::closedir(dir);
  }
  SliceJournal::Header h;
  h.scenario_path = opts_.scenario_path;
  h.scenario_count = file_.scenarios.size();
  h.slices = slice_count_;
  journal_ = SliceJournal::create(journal_path, h);
}

void Dispatcher::validate_resumable_slices() {
  for (int i = 0; i < slice_count_; ++i) {
    const std::string csv = read_file_or_empty(slice_csv_path(work_dir_, i));
    if (csv.empty()) continue;
    const std::string records = read_file_or_empty(slice_records_path(work_dir_, i));
    ResultWriter::ResumeInfo info;
    try {
      info = ResultWriter::resume_info(csv, records);
    } catch (const std::exception&) {
      continue;  // not a valid slice CSV or records file: re-run the slice
    }
    // Only byte-complete artifacts count: every expected (index, label)
    // present and finished without error in both files, and nothing else
    // in them. Anything else re-runs.
    if (info.completed != expected_[static_cast<std::size_t>(i)] ||
        info.completed_csv != csv || info.completed_records != records) {
      continue;
    }
    queue_->complete_resumed(i, 0);
    ++report_.slices_resumed;
  }
}

void Dispatcher::spawn_worker() {
  int to_pipe[2];
  int from_pipe[2];
  // O_CLOEXEC keeps one worker's pipe ends out of its siblings, so a
  // worker's stdin sees EOF as soon as this process exits — orphaned
  // workers terminate themselves instead of lingering.
  if (::pipe2(to_pipe, O_CLOEXEC) != 0 || ::pipe2(from_pipe, O_CLOEXEC) != 0) {
    throw std::runtime_error("dispatch: pipe() failed");
  }
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("dispatch: fork() failed");
  if (pid == 0) {
    ::dup2(to_pipe[0], STDIN_FILENO);    // dup2 clears O_CLOEXEC on the copy
    ::dup2(from_pipe[1], STDOUT_FILENO);
    const std::string hb = std::to_string(opts_.heartbeat_ms);
    ::execl(opts_.exe.c_str(), opts_.exe.c_str(), "worker", opts_.scenario_path.c_str(),
            work_dir_.c_str(), hb.c_str(), static_cast<char*>(nullptr));
    SPEAKUP_LOG_ERROR("dispatch: exec '%s' failed: %s", opts_.exe.c_str(),
                      std::strerror(errno));
    ::_exit(127);
  }
  ::close(to_pipe[0]);
  ::close(from_pipe[1]);
  WorkerProc w;
  w.id = static_cast<int>(workers_.size());
  w.pid = pid;
  w.to_fd = to_pipe[1];
  w.from_fd = from_pipe[0];
  w.alive = true;
  w.last_seen = Clock::now();
  workers_.push_back(w);
  ++report_.workers_spawned;
}

void Dispatcher::ensure_workers() {
  const int target = std::min(std::max(1, opts_.workers),
                              queue_->pending() + queue_->running());
  int alive = 0;
  for (const WorkerProc& w : workers_) alive += (w.alive && !w.exiting) ? 1 : 0;
  while (alive < target && report_.workers_spawned < spawn_budget_) {
    spawn_worker();
    ++alive;
  }
}

void Dispatcher::pump_assignments() {
  for (WorkerProc& w : workers_) {
    if (!w.alive || !w.ready || w.exiting || w.slice >= 0) continue;
    const int slice = queue_->claim(w.id);
    if (slice < 0) {
      if (queue_->settled()) {
        const std::string cmd = "exit\n";
        (void)!::write(w.to_fd, cmd.data(), cmd.size());
        w.exiting = true;
      }
      continue;  // idle standby: a running slice may yet be requeued
    }
    journal_.claim(slice, queue_->slice(slice).attempts, static_cast<int>(w.pid));
    const std::string cmd = "slice " + std::to_string(slice) + " " +
                            std::to_string(slice_count_) + "\n";
    w.slice = slice;
    w.last_seen = Clock::now();  // the heartbeat clock starts at assignment
    w.metric_primed = false;     // per-slice event counts restart at zero
    SPEAKUP_LOG_DEBUG("dispatch: slice %d -> worker %d", slice, w.id);
    if (::write(w.to_fd, cmd.data(), cmd.size()) != static_cast<ssize_t>(cmd.size())) {
      // The worker died between spawn and first assignment.
      worker_gone(w, "worker pipe closed");
    }
  }
}

void Dispatcher::handle_line(WorkerProc& w, const std::string& line) {
  w.last_seen = Clock::now();
  std::istringstream in(line);
  std::string kind;
  in >> kind;
  if (kind == "ready") {
    w.ready = true;
  } else if (kind == "start") {
    // informational; liveness already refreshed above
  } else if (kind == "hb") {
    int slice = -1;
    std::size_t rows_done = 0, rows = 0;
    std::uint64_t events = 0;
    in >> slice >> rows_done >> rows >> events;
    if (slice == w.slice && slice >= 0) {
      queue_->heartbeat(slice, rows_done, events);
      worker_metrics(w, slice, rows_done, rows, events);
    }
  } else if (kind == "done") {
    int slice = -1;
    std::size_t rows = 0;
    std::uint64_t events = 0;
    in >> slice >> rows >> events;
    if (slice != w.slice || slice < 0) return;  // stale line after a requeue race
    w.slice = -1;
    if (file_size(slice_csv_path(work_dir_, slice)) == 0 ||
        file_size(slice_records_path(work_dir_, slice)) == 0) {
      // The worker claims completion but an artifact is missing: treat
      // like a failure so the slice is retried.
      ++report_.requeues;
      journal_.fail(slice, queue_->slice(slice).attempts, "slice files missing after done");
      if (!queue_->requeue(slice, "slice files missing after done")) {
        report_.failures.push_back("slice " + std::to_string(slice) +
                                   ": files missing after done");
      }
      return;
    }
    queue_->complete(slice, events);
    journal_.done(slice, rows, events);
    json::Value ev;
    ev.set("type", "slice_done");
    ev.set("slice", slice);
    ev.set("worker", w.id);
    ev.set("rows", static_cast<double>(rows));
    ev.set("attempt", queue_->slice(slice).attempts);
    event("dispatch: slice " + std::to_string(slice) + " done (" +
              std::to_string(queue_->rows_done()) + "/" +
              std::to_string(queue_->rows_total()) + " rows)",
          std::move(ev));
    ++done_count_;
    if (fault_after_done_ >= 0 && done_count_ >= fault_after_done_) {
      // Injected coordinator kill (see fault-injection note above).
      std::_Exit(32);
    }
  } else if (kind == "fail") {
    int slice = -1;
    in >> slice;
    std::string reason;
    std::getline(in, reason);
    if (!reason.empty() && reason.front() == ' ') reason.erase(0, 1);
    if (slice >= 0 && slice == w.slice) {
      requeue_slice(w, reason.empty() ? "worker reported failure" : reason);
    }
    // `fail -1 ...` is a worker-level defect; it exits right after, and the
    // EOF path accounts for it.
  } else {
    SPEAKUP_LOG_DEBUG("dispatch: worker %d sent unrecognized line '%s'", w.id,
                      line.c_str());
  }
}

// Per-worker throughput events for --status json consumers: every heartbeat
// carries the worker's cumulative sim-event count, so the dispatcher can
// report each worker's live rate, not just its liveness. Rate-limited to
// one event per worker per second; only the JSON view emits them (the tty
// progress line already shows per-worker rows, and plain mode stays quiet).
void Dispatcher::worker_metrics(WorkerProc& w, int slice, std::size_t rows_done,
                                std::size_t rows, std::uint64_t events) {
  if (view() != View::kJson) return;
  const Clock::time_point now = Clock::now();
  if (!w.metric_primed) {
    // First heartbeat on this slice: prime the baseline, nothing to rate yet.
    w.metric_primed = true;
    w.metric_events = events;
    w.metric_rows = rows_done;
    w.metric_at = now;
    return;
  }
  const double secs = std::chrono::duration<double>(now - w.metric_at).count();
  if (secs < 1.0) return;
  json::Value ev;
  ev.set("type", "metrics");
  ev.set("worker", w.id);
  ev.set("slice", slice);
  ev.set("rows_done", static_cast<double>(rows_done));
  ev.set("rows", static_cast<double>(rows));
  ev.set("events", static_cast<double>(events));
  ev.set("events_per_s",
         static_cast<double>(events - w.metric_events) / secs);
  ev.set("rows_per_s",
         static_cast<double>(rows_done - w.metric_rows) / secs);
  event("", std::move(ev));  // json-only: plain text unused
  w.metric_events = events;
  w.metric_rows = rows_done;
  w.metric_at = now;
}

void Dispatcher::requeue_slice(WorkerProc& w, const std::string& reason) {
  const int slice = w.slice;
  w.slice = -1;
  if (slice < 0) return;
  journal_.fail(slice, queue_->slice(slice).attempts, reason);
  if (queue_->requeue(slice, reason)) {
    ++report_.requeues;
    json::Value ev;
    ev.set("type", "requeue");
    ev.set("slice", slice);
    ev.set("reason", reason);
    ev.set("attempt", queue_->slice(slice).attempts);
    event("dispatch: slice " + std::to_string(slice) + " requeued: " + reason,
          std::move(ev));
  } else {
    report_.failures.push_back("slice " + std::to_string(slice) + ": " + reason +
                               " (after " +
                               std::to_string(queue_->slice(slice).attempts) +
                               " attempt(s))");
    json::Value ev;
    ev.set("type", "slice_failed");
    ev.set("slice", slice);
    ev.set("reason", reason);
    event("dispatch: slice " + std::to_string(slice) + " FAILED: " + reason,
          std::move(ev));
  }
}

void Dispatcher::worker_gone(WorkerProc& w, const std::string& reason) {
  if (!w.alive) return;
  // Drain anything the worker said before dying — a `done` that is already
  // in the pipe must count, not burn a retry.
  for (;;) {
    char chunk[4096];
    const ssize_t got = ::read(w.from_fd, chunk, sizeof chunk);
    if (got <= 0) break;
    w.buf.append(chunk, static_cast<std::size_t>(got));
  }
  std::size_t nl;
  while ((nl = w.buf.find('\n')) != std::string::npos) {
    const std::string line = w.buf.substr(0, nl);
    w.buf.erase(0, nl + 1);
    handle_line(w, line);
  }
  w.alive = false;
  ::close(w.to_fd);
  ::close(w.from_fd);
  int status = 0;
  ::waitpid(w.pid, &status, 0);
  if (!w.exiting) {
    ++report_.worker_deaths;
    json::Value ev;
    ev.set("type", "worker_dead");
    ev.set("worker", w.id);
    ev.set("pid", static_cast<double>(w.pid));
    ev.set("reason", reason);
    ev.set("slice", w.slice);
    event("dispatch: worker " + std::to_string(w.id) + " (pid " +
              std::to_string(w.pid) + ") died: " + reason,
          std::move(ev));
  }
  if (w.slice >= 0) requeue_slice(w, reason);
}

void Dispatcher::kill_worker(WorkerProc& w, const std::string& reason) {
  SPEAKUP_LOG_DEBUG("dispatch: killing worker %d (pid %d): %s", w.id,
                    static_cast<int>(w.pid), reason.c_str());
  ::kill(w.pid, SIGKILL);
  worker_gone(w, reason);
}

void Dispatcher::shutdown_workers() {
  for (WorkerProc& w : workers_) {
    if (!w.alive || w.exiting) continue;
    const std::string cmd = "exit\n";
    (void)!::write(w.to_fd, cmd.data(), cmd.size());
    w.exiting = true;
  }
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(3);
  for (WorkerProc& w : workers_) {
    if (!w.alive) continue;
    if (Clock::now() > deadline) ::kill(w.pid, SIGKILL);
    worker_gone(w, "shutdown");
  }
}

void Dispatcher::finalize() {
  const double wall =
      std::chrono::duration<double>(Clock::now() - started_).count();
  progress(true);
  if (view() == View::kTty && tty_width_ > 0) std::fputc('\n', stderr);
  if (queue_->complete_ok()) {
    // Every slice's two files, merged once; the slice file names ride along
    // so a duplicate-index rejection names the slices that collide.
    std::vector<std::string> csvs, records, csv_names, records_names;
    for (int i = 0; i < slice_count_; ++i) {
      csv_names.push_back(slice_csv_path(work_dir_, i));
      records_names.push_back(slice_records_path(work_dir_, i));
      csvs.push_back(read_file_or_empty(csv_names.back()));
      records.push_back(read_file_or_empty(records_names.back()));
    }
    const std::string merged = ResultWriter::merge_csv(csvs, csv_names);
    const std::string merged_records = ResultWriter::merge_csv(records, records_names);
    const std::vector<std::size_t> indices = ResultWriter::csv_indices(merged);
    if (indices.size() != file_.scenarios.size()) {
      report_.failures.push_back("internal: merged output holds " +
                                 std::to_string(indices.size()) + " of " +
                                 std::to_string(file_.scenarios.size()) + " rows");
    } else {
      write_file_atomic(ResultWriter::records_path(opts_.out_csv), merged_records);
      write_file_atomic(opts_.out_csv, merged);
      report_.ok = true;
      report_.rows_failed = file_.scenarios.size() -
                            ResultWriter::resume_info(merged, merged_records).completed.size();
      // The sweep is merged and durable: retire the work directory.
      if (DIR* dir = ::opendir(work_dir_.c_str())) {
        while (dirent* entry = ::readdir(dir)) {
          const std::string name = entry->d_name;
          if (name == "." || name == "..") continue;
          ::unlink((work_dir_ + "/" + name).c_str());
        }
        ::closedir(dir);
        journal_ = SliceJournal();  // close before the directory goes away
        ::rmdir(work_dir_.c_str());
      }
    }
  }
  json::Value ev;
  ev.set("type", "done");
  ev.set("ok", report_.ok);
  ev.set("rows", static_cast<double>(report_.rows_total));
  ev.set("rows_failed", static_cast<double>(report_.rows_failed));
  ev.set("slices_resumed", report_.slices_resumed);
  ev.set("worker_deaths", report_.worker_deaths);
  ev.set("requeues", report_.requeues);
  ev.set("wall_s", wall);
  json::Value failures{json::Value::Array{}};
  for (const std::string& f : report_.failures) failures.push_back(f);
  ev.set("failures", std::move(failures));
  event("dispatch: " + std::string(report_.ok ? "complete" : "FAILED") + ", " +
            std::to_string(report_.rows_total) + " row(s), " +
            std::to_string(report_.worker_deaths) + " worker death(s), " +
            std::to_string(report_.requeues) + " requeue(s)",
        std::move(ev));
}

Dispatcher::View Dispatcher::view() const {
  switch (opts_.status) {
    case DispatchOptions::Status::kJson: return View::kJson;
    case DispatchOptions::Status::kTty: return View::kTty;
    case DispatchOptions::Status::kAuto:
      return ::isatty(STDERR_FILENO) != 0 ? View::kTty : View::kPlain;
  }
  return View::kPlain;
}

void Dispatcher::event(const std::string& plain_text, json::Value json_event) {
  switch (view()) {
    case View::kJson:
      std::fputs((json_event.dump(0) + "\n").c_str(), stdout);
      std::fflush(stdout);
      break;
    case View::kTty:
      if (tty_width_ > 0) {
        std::fprintf(stderr, "\r%*s\r", static_cast<int>(tty_width_), "");
        tty_width_ = 0;
      }
      std::fprintf(stderr, "%s\n", plain_text.c_str());
      break;
    case View::kPlain:
      std::fprintf(stderr, "%s\n", plain_text.c_str());
      break;
  }
}

json::Value Dispatcher::progress_json() const {
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - started_).count();
  const std::size_t done = queue_->rows_done();
  const std::size_t total = queue_->rows_total();
  json::Value v;
  v.set("type", "progress");
  v.set("rows_done", static_cast<double>(done));
  v.set("rows_total", static_cast<double>(total));
  v.set("slices_done", queue_->done());
  v.set("slices_total", queue_->size());
  v.set("events", static_cast<double>(queue_->events_total()));
  v.set("events_per_sec",
        elapsed > 0 ? static_cast<double>(queue_->events_total()) / elapsed : 0.0);
  v.set("eta_s", done > 0 && done < total
                     ? elapsed / static_cast<double>(done) *
                           static_cast<double>(total - done)
                     : 0.0);
  json::Value ws{json::Value::Array{}};
  for (const WorkerProc& w : workers_) {
    if (!w.alive) continue;
    json::Value wv;
    wv.set("worker", w.id);
    wv.set("pid", static_cast<double>(w.pid));
    wv.set("state", w.slice >= 0 ? "running" : (w.exiting ? "exiting" : "idle"));
    if (w.slice >= 0) {
      const Slice& s = queue_->slice(w.slice);
      wv.set("slice", w.slice);
      wv.set("rows_done", static_cast<double>(s.rows_done));
      wv.set("rows", static_cast<double>(s.rows));
    }
    ws.push_back(std::move(wv));
  }
  v.set("workers", std::move(ws));
  return v;
}

std::string Dispatcher::progress_tty() const {
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - started_).count();
  const std::size_t done = queue_->rows_done();
  const std::size_t total = queue_->rows_total();
  const double evps =
      elapsed > 0 ? static_cast<double>(queue_->events_total()) / elapsed : 0.0;
  char head[160];
  std::snprintf(head, sizeof head, "dispatch: %zu/%zu rows  %d/%d slices  %.2gM ev/s",
                done, total, queue_->done(), queue_->size(), evps / 1e6);
  std::string line = head;
  if (done > 0 && done < total) {
    const double eta = elapsed / static_cast<double>(done) *
                       static_cast<double>(total - done);
    char buf[48];
    std::snprintf(buf, sizeof buf, "  ETA %d:%02d", static_cast<int>(eta) / 60,
                  static_cast<int>(eta) % 60);
    line += buf;
  }
  for (const WorkerProc& w : workers_) {
    if (!w.alive || w.exiting) continue;
    if (w.slice >= 0) {
      const Slice& s = queue_->slice(w.slice);
      line += "  w" + std::to_string(w.id) + ":s" + std::to_string(w.slice) + "(" +
              std::to_string(s.rows_done) + "/" + std::to_string(s.rows) + ")";
    } else {
      line += "  w" + std::to_string(w.id) + ":idle";
    }
  }
  return line;
}

void Dispatcher::progress(bool force) {
  const View v = view();
  const auto interval =
      std::chrono::milliseconds(v == View::kTty ? 200 : 1000);
  const Clock::time_point now = Clock::now();
  if (!force && now - last_progress_ < interval) return;
  last_progress_ = now;
  switch (v) {
    case View::kJson: {
      json::Value p = progress_json();
      std::fputs((p.dump(0) + "\n").c_str(), stdout);
      std::fflush(stdout);
      break;
    }
    case View::kTty: {
      const std::string line = progress_tty();
      std::fprintf(stderr, "\r%s", line.c_str());
      if (line.size() < tty_width_) {
        std::fprintf(stderr, "%*s", static_cast<int>(tty_width_ - line.size()), "");
      }
      std::fflush(stderr);
      tty_width_ = std::max(tty_width_, line.size());
      break;
    }
    case View::kPlain:
      break;  // per-event lines only; no periodic spam in CI logs
  }
}

}  // namespace

DispatchReport dispatch_sweep(const DispatchOptions& opts) {
  Dispatcher d(opts);
  return d.run();
}

}  // namespace speakup::exp
