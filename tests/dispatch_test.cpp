// Tests for the `speakup dispatch` sweep fabric.
//
// Unit level: the WorkQueue slice state machine (claim / heartbeat /
// requeue / attempt budget) and the SliceJournal header round-trip.
//
// End to end, against the real `speakup` binary (SPEAKUP_CLI_BIN): a
// dispatched sweep must produce output byte-identical to a single-process
// `speakup run` — on the happy path, under an injected worker SIGKILL
// mid-slice, under a stalled heartbeat, and across a dispatcher kill +
// `--resume` restart. Fault injection uses the SPEAKUP_WORKER_FAULT /
// SPEAKUP_DISPATCH_FAULT hooks documented in docs/cli.md; each fault
// carries a token file so it fires exactly once per test.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/dispatch.hpp"
#include "exp/result_writer.hpp"
#include "exp/work_queue.hpp"

namespace speakup {
namespace {

using exp::Slice;
using exp::SliceJournal;
using exp::WorkQueue;

// ---------------------------------------------------------------------------
// WorkQueue unit tests.
// ---------------------------------------------------------------------------

TEST(WorkQueue, ClaimsLowestPendingAndCountsAttempts) {
  WorkQueue q({2, 1, 3}, /*max_attempts=*/2);
  EXPECT_EQ(q.size(), 3);
  EXPECT_EQ(q.rows_total(), 6u);
  EXPECT_EQ(q.claim(7), 0);
  EXPECT_EQ(q.slice(0).state, Slice::State::kRunning);
  EXPECT_EQ(q.slice(0).worker, 7);
  EXPECT_EQ(q.slice(0).attempts, 1);
  EXPECT_EQ(q.claim(8), 1);
  EXPECT_EQ(q.claim(9), 2);
  EXPECT_EQ(q.claim(10), -1);  // nothing pending
  EXPECT_FALSE(q.settled());

  q.complete(0, 100);
  q.complete(1, 50);
  q.complete(2, 25);
  EXPECT_TRUE(q.settled());
  EXPECT_TRUE(q.complete_ok());
  EXPECT_EQ(q.events_total(), 175u);
}

TEST(WorkQueue, RequeueReturnsSliceUntilAttemptBudgetRunsOut) {
  WorkQueue q({1}, /*max_attempts=*/2);
  EXPECT_EQ(q.claim(0), 0);
  // First loss: back to pending (attempt 2 still available).
  EXPECT_TRUE(q.requeue(0, "worker exited"));
  EXPECT_EQ(q.slice(0).state, Slice::State::kPending);
  EXPECT_EQ(q.slice(0).error, "worker exited");
  EXPECT_EQ(q.claim(1), 0);
  EXPECT_EQ(q.slice(0).attempts, 2);
  // Second loss: budget spent, permanently failed.
  EXPECT_FALSE(q.requeue(0, "worker exited again"));
  EXPECT_EQ(q.slice(0).state, Slice::State::kFailed);
  EXPECT_TRUE(q.settled());
  EXPECT_FALSE(q.complete_ok());
}

TEST(WorkQueue, HeartbeatsDriveRowsDoneAccounting) {
  WorkQueue q({4, 4}, /*max_attempts=*/1);
  EXPECT_EQ(q.claim(0), 0);
  q.heartbeat(0, 3, 900);
  EXPECT_EQ(q.rows_done(), 3u);
  q.complete(0, 1200);
  EXPECT_EQ(q.rows_done(), 4u);  // a done slice counts all its rows
  EXPECT_EQ(q.claim(1), 1);
  q.heartbeat(1, 1, 10);
  EXPECT_EQ(q.rows_done(), 5u);
  EXPECT_EQ(q.events_total(), 1210u);
}

TEST(WorkQueue, FailPendingLeavesRunningSlicesAlone) {
  WorkQueue q({1, 1, 1}, /*max_attempts=*/1);
  EXPECT_EQ(q.claim(0), 0);
  q.fail_pending("no workers left");
  EXPECT_EQ(q.slice(0).state, Slice::State::kRunning);
  EXPECT_EQ(q.slice(1).state, Slice::State::kFailed);
  EXPECT_EQ(q.slice(2).state, Slice::State::kFailed);
  EXPECT_EQ(q.failed(), 2);
}

TEST(WorkQueue, CompleteResumedMarksAnUnclaimedSliceDone) {
  WorkQueue q({1, 1}, /*max_attempts=*/1);
  q.complete_resumed(1, 777);
  EXPECT_EQ(q.slice(1).state, Slice::State::kDone);
  EXPECT_EQ(q.pending(), 1);
  EXPECT_EQ(q.done(), 1);
}

// ---------------------------------------------------------------------------
// SliceJournal.
// ---------------------------------------------------------------------------

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/speakup_dispatch_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    // Best-effort recursive cleanup (paths are our own temp files).
    const std::string cmd = "rm -rf '" + dir_ + "'";
    (void)std::system(cmd.c_str());
  }
  std::string dir_;
};

class SliceJournalTest : public TempDir {};

TEST_F(SliceJournalTest, HeaderRoundTripsAndEventsAppend) {
  const std::string path = dir_ + "/journal";
  {
    SliceJournal j = SliceJournal::create(
        path, SliceJournal::Header{"scenarios/smoke.json", 6, 4});
    j.claim(0, 1, 1234);
    j.done(0, 2, 999);
  }
  {
    SliceJournal j = SliceJournal::append_to(path);
    j.fail(1, 2, "worker\nexited");  // newlines must flatten
  }
  const SliceJournal::Header h = SliceJournal::read_header(path);
  EXPECT_EQ(h.scenario_path, "scenarios/smoke.json");
  EXPECT_EQ(h.scenario_count, 6u);
  EXPECT_EQ(h.slices, 4);

  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[1], "claim 0 attempt 1 pid 1234");
  EXPECT_EQ(lines[2], "done 0 rows 2 events 999");
  EXPECT_EQ(lines[3], "fail 1 attempt 2 reason worker exited");
}

TEST_F(SliceJournalTest, ReadHeaderRejectsNonJournals) {
  EXPECT_THROW((void)SliceJournal::read_header(dir_ + "/missing"),
               std::runtime_error);
  const std::string path = dir_ + "/not_a_journal";
  std::ofstream(path) << "index,label\n0,x\n";
  EXPECT_THROW((void)SliceJournal::read_header(path), std::runtime_error);
}

// ---------------------------------------------------------------------------
// End-to-end: the real binary, real subprocess workers, real faults.
// ---------------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

struct CmdResult {
  int exit_code = -1;  // -1: killed by a signal / system() failure
  std::string out;
  std::string err;
};

class DispatchE2E : public TempDir {
 protected:
  /// Runs `speakup <args>` through the shell, capturing exit code, stdout,
  /// and stderr. `env_prefix` may carry VAR=value fault injections.
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

  std::string scenario() {
    return std::string(SPEAKUP_SCENARIO_DIR) + "/smoke.json";
  }

  /// The single-process baseline every dispatch variant must match.
  std::string baseline() {
    const std::string path = dir_ + "/single.csv";
    const CmdResult r = cli("run " + scenario() + " --out " + path + " --quiet --jobs 2");
    EXPECT_EQ(r.exit_code, 0) << r.err;
    return read_file(path);
  }
};

TEST_F(DispatchE2E, MatchesSingleProcessRunByteForByte) {
  const std::string single = baseline();
  const std::string out = dir_ + "/disp.csv";
  const CmdResult r =
      cli("dispatch " + scenario() + " --workers 4 --out " + out + " --status json");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_EQ(read_file(out), single);
  // The work directory is removed after a fully successful sweep.
  EXPECT_FALSE(file_exists(out + ".work/journal"));
  EXPECT_NE(r.out.find("\"type\":\"done\",\"ok\":true"), std::string::npos) << r.out;
}

TEST_F(DispatchE2E, SurvivesWorkerSigkillMidSlice) {
  const std::string single = baseline();
  const std::string out = dir_ + "/kill.csv";
  const CmdResult r = cli(
      "dispatch " + scenario() + " --workers 2 --out " + out +
          " --status json --heartbeat-ms 500",
      "SPEAKUP_WORKER_FAULT='kill:1:" + dir_ + "/kill_token'");
  ASSERT_EQ(r.exit_code, 0) << r.err << r.out;
  EXPECT_EQ(read_file(out), single);
  // The fault must actually have fired and been handled.
  EXPECT_NE(r.out.find("\"type\":\"worker_dead\""), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"type\":\"requeue\",\"slice\":1"), std::string::npos) << r.out;
}

TEST_F(DispatchE2E, SurvivesStalledHeartbeat) {
  const std::string single = baseline();
  const std::string out = dir_ + "/stall.csv";
  const CmdResult r = cli(
      "dispatch " + scenario() + " --workers 2 --out " + out +
          " --status json --heartbeat-ms 400",
      "SPEAKUP_WORKER_FAULT='stall:2:" + dir_ + "/stall_token'");
  ASSERT_EQ(r.exit_code, 0) << r.err << r.out;
  EXPECT_EQ(read_file(out), single);
  EXPECT_NE(r.out.find("heartbeat timeout"), std::string::npos) << r.out;
}

TEST_F(DispatchE2E, EmitsPerWorkerMetricsEventsInJsonView) {
  // The dispatcher derives per-worker throughput from heartbeat deltas and
  // emits at most one {"type":"metrics"} event per worker per second, so a
  // slice must run well past 1 s of wall time for one to fire. The first
  // heartbeat (a third of --heartbeat-ms in) only primes the rate, so the
  // first event needs the slice to outlive about 1.33 s. A 720 s scenario
  // takes only ~1.7 s on a 4-vCPU VM, too close to that edge; the 3600 s
  // one below takes ~8 s there and leaves room on hardware several times
  // faster. The heartbeat stays at a full second so a scheduler stall
  // under a loaded parallel ctest run can't trip the worker-kill threshold.
  const std::string file = dir_ + "/long.json";
  std::ofstream(file) << "{\n"
                      << "  \"defaults\": {\"defense\": \"auction\", \"capacity_rps\": 20,\n"
                      << "    \"duration_s\": 3600, \"seed\": 5, \"lan\": {\"good\": 10, \"bad\": 10}},\n"
                      << "  \"scenarios\": [{\"label\": \"long\"}]\n"
                      << "}\n";
  const std::string out = dir_ + "/metrics.csv";
  const CmdResult r = cli("dispatch " + file + " --workers 1 --slices 1 --out " +
                          out + " --status json --heartbeat-ms 1000");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  const std::size_t pos = r.out.find("\"type\":\"metrics\"");
  ASSERT_NE(pos, std::string::npos) << r.out;
  const std::string line = r.out.substr(pos, r.out.find('\n', pos) - pos);
  EXPECT_NE(line.find("\"worker\":0"), std::string::npos) << line;
  EXPECT_NE(line.find("\"slice\":0"), std::string::npos) << line;
  EXPECT_NE(line.find("\"rows\":1"), std::string::npos) << line;
  EXPECT_NE(line.find("\"events_per_s\":"), std::string::npos) << line;
  EXPECT_NE(line.find("\"rows_per_s\":"), std::string::npos) << line;
}

TEST_F(DispatchE2E, ResumesAfterDispatcherKill) {
  const std::string single = baseline();
  const std::string out = dir_ + "/resumed.csv";
  // First dispatcher "crashes" (deterministic _Exit(32)) after two slices.
  const CmdResult first = cli(
      "dispatch " + scenario() + " --workers 2 --out " + out + " --status json",
      "SPEAKUP_DISPATCH_FAULT='exit-after-done:2'");
  ASSERT_EQ(first.exit_code, 32) << first.err << first.out;
  EXPECT_FALSE(file_exists(out));  // nothing merged yet
  ASSERT_TRUE(file_exists(out + ".work/journal"));

  const CmdResult second = cli("dispatch " + scenario() + " --workers 2 --out " +
                               out + " --status json --resume");
  ASSERT_EQ(second.exit_code, 0) << second.err << second.out;
  EXPECT_EQ(read_file(out), single);
  // At least the two pre-kill slices came back from disk, unrun.
  EXPECT_NE(second.out.find("\"resume\":true"), std::string::npos) << second.out;
  EXPECT_EQ(second.out.find("\"slices_resumed\":0,"), std::string::npos) << second.out;
  EXPECT_FALSE(file_exists(out + ".work/journal"));
}

TEST_F(DispatchE2E, ResumeReRunsASliceWithATruncatedCsv) {
  const std::string single = baseline();
  const std::string out = dir_ + "/trunc.csv";
  const CmdResult first = cli(
      "dispatch " + scenario() + " --workers 2 --out " + out + " --status json",
      "SPEAKUP_DISPATCH_FAULT='exit-after-done:2'");
  ASSERT_EQ(first.exit_code, 32) << first.err;

  // Corrupt one completed slice artifact the way a dying worker would:
  // chop the file mid-row, right after a comma, no trailing newline.
  std::string corrupted_slice;
  for (int s = 0; s < 16; ++s) {
    const std::string path = out + ".work/slice_" + std::to_string(s) + ".csv";
    if (!file_exists(path)) continue;
    const std::string full = read_file(path);
    const std::size_t cut = full.find_last_of(',');
    ASSERT_NE(cut, std::string::npos);
    std::ofstream(path, std::ios::binary) << full.substr(0, cut + 1);
    corrupted_slice = path;
    break;
  }
  ASSERT_FALSE(corrupted_slice.empty()) << "no slice CSV survived the kill";

  const CmdResult second = cli("dispatch " + scenario() + " --workers 2 --out " +
                               out + " --status json --resume");
  ASSERT_EQ(second.exit_code, 0) << second.err << second.out;
  // The truncated slice was re-run, not merged: output is still perfect.
  EXPECT_EQ(read_file(out), single);
}

TEST_F(DispatchE2E, ExhaustedRetriesFailTheSweep) {
  const std::string out = dir_ + "/failed.csv";
  // kill fault fires once; with --retries 0 that one loss is permanent.
  const CmdResult r = cli(
      "dispatch " + scenario() + " --workers 2 --out " + out +
          " --status json --retries 0 --heartbeat-ms 500",
      "SPEAKUP_WORKER_FAULT='kill:1:" + dir_ + "/kill_once'");
  EXPECT_EQ(r.exit_code, 1) << r.err << r.out;
  // No merged output for an incomplete sweep; the work dir stays for
  // inspection / resume.
  EXPECT_FALSE(file_exists(out));
  EXPECT_TRUE(file_exists(out + ".work/journal"));
  EXPECT_NE(r.out.find("\"type\":\"slice_failed\""), std::string::npos) << r.out;
  EXPECT_NE(r.err.find("slice 1"), std::string::npos) << r.err;
}

TEST_F(DispatchE2E, RunListPrintsTheExpansionWithoutRunning) {
  const CmdResult r = cli("run " + scenario() + " --list");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_EQ(r.out,
            "index\tlabel\tdefense\tstrategies\tseed\tcapacity_rps\tduration_s\n"
            "0\tsmoke/none\tnone\tpoisson\t7\t50\t3\n"
            "1\tsmoke/retry\tretry\tpoisson\t7\t50\t3\n"
            "2\tsmoke/auction\tauction\tpoisson\t7\t50\t3\n"
            "3\tsmoke/quantum\tquantum\tpoisson\t7\t50\t3\n"
            "4\tsmoke/auction-seeds/seed7\tauction\tpoisson\t7\t50\t3\n"
            "5\tsmoke/auction-seeds/seed8\tauction\tpoisson\t8\t50\t3\n");

  // --shard applies the same slice math the dispatcher uses.
  const CmdResult shard = cli("run " + scenario() + " --list --shard 1/3");
  ASSERT_EQ(shard.exit_code, 0) << shard.err;
  EXPECT_NE(shard.out.find("\n1\tsmoke/retry"), std::string::npos) << shard.out;
  EXPECT_NE(shard.out.find("\n4\tsmoke/auction-seeds/seed7"), std::string::npos)
      << shard.out;
  EXPECT_EQ(shard.out.find("\n2\tsmoke/auction"), std::string::npos) << shard.out;
}

TEST_F(DispatchE2E, MergeRejectsDuplicateIndicesWithFileNames) {
  const std::string single = baseline();
  std::ofstream(dir_ + "/a.csv", std::ios::binary) << single;
  std::ofstream(dir_ + "/b.csv", std::ios::binary) << single;
  const CmdResult r = cli("merge --out " + dir_ + "/m.csv " + dir_ + "/a.csv " +
                          dir_ + "/b.csv");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("a.csv"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("b.csv"), std::string::npos) << r.err;
  EXPECT_FALSE(file_exists(dir_ + "/m.csv"));
}

TEST_F(DispatchE2E, RunResumeIgnoresATruncatedTrailingRow) {
  const std::string single = baseline();
  const std::string out = dir_ + "/resume_run.csv";
  // Simulate a `run` killed mid-write: the first rows are intact, the last
  // one is chopped right after a comma with no trailing newline.
  const std::size_t cut = single.find_last_of(',');
  ASSERT_NE(cut, std::string::npos);
  std::ofstream(out, std::ios::binary) << single.substr(0, cut + 1);

  const CmdResult r =
      cli("run " + scenario() + " --out " + out + " --resume --quiet --jobs 2");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_EQ(read_file(out), single);
}

}  // namespace
}  // namespace speakup
