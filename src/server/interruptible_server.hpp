// The server interface required by the heterogeneous-request extension (§5):
// SUSPEND, RESUME and ABORT. The paper notes many transaction managers and
// application servers export such an interface; we emulate one.
//
// Work is measured in seconds of server attention. A request of difficulty d
// needs d * base quanta, where base is drawn from U[0.9/c, 1.1/c] — the
// thinner never learns d (worst case: only attackers know difficulty).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>

#include "http/message.hpp"
#include "server/emulated_server.hpp"
#include "sim/event_loop.hpp"
#include "sim/timer.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace speakup::server {

class InterruptibleServer {
 public:
  InterruptibleServer(sim::EventLoop& loop, double capacity_rps, util::RngStream rng)
      : loop_(&loop),
        capacity_rps_(capacity_rps),
        rng_(std::move(rng)),
        completion_timer_(loop) {
    util::require(capacity_rps > 0, "server capacity must be positive");
  }

  InterruptibleServer(const InterruptibleServer&) = delete;
  InterruptibleServer& operator=(const InterruptibleServer&) = delete;

  void set_on_complete(std::function<void(const ServiceRequest&)> cb) {
    on_complete_ = std::move(cb);
  }

  [[nodiscard]] bool busy() const { return active_.has_value(); }
  [[nodiscard]] std::optional<std::uint64_t> active_request() const {
    return active_ ? std::optional<std::uint64_t>(active_->req.request_id) : std::nullopt;
  }

  /// Admits a new request; the server must be idle.
  void submit(const ServiceRequest& req) {
    SPEAKUP_ASSERT(!busy());
    Job job;
    job.req = req;
    // Total work: difficulty quanta, each U[0.9/c, 1.1/c] seconds.
    double total = 0.0;
    for (int i = 0; i < req.difficulty; ++i) {
      total += rng_.uniform(0.9 / capacity_rps_, 1.1 / capacity_rps_);
    }
    job.remaining = Duration::seconds(total);
    start(std::move(job));
  }

  /// SUSPENDs the active request, saving its remaining work.
  void suspend() {
    SPEAKUP_ASSERT(busy());
    account_progress();
    completion_timer_.cancel();
    suspended_[active_->req.request_id] = *active_;
    active_.reset();
  }

  /// RESUMEs a previously suspended request; the server must be idle.
  void resume(std::uint64_t request_id) {
    SPEAKUP_ASSERT(!busy());
    const auto it = suspended_.find(request_id);
    SPEAKUP_ASSERT(it != suspended_.end());
    Job job = it->second;
    suspended_.erase(it);
    start(std::move(job));
  }

  /// ABORTs a suspended request, discarding its progress.
  void abort_suspended(std::uint64_t request_id) {
    const auto erased = suspended_.erase(request_id);
    SPEAKUP_ASSERT(erased == 1);
  }

  [[nodiscard]] bool is_suspended(std::uint64_t request_id) const {
    return suspended_.find(request_id) != suspended_.end();
  }
  [[nodiscard]] std::size_t suspended_count() const { return suspended_.size(); }

  // --- accounting (server time consumed, by class) ---
  [[nodiscard]] Duration good_busy_time() const { return good_busy_time_; }
  [[nodiscard]] Duration bad_busy_time() const { return bad_busy_time_; }
  /// Only classified work is charged, so the total is the good + bad split.
  [[nodiscard]] Duration busy_time() const { return good_busy_time_ + bad_busy_time_; }
  [[nodiscard]] std::int64_t completed() const { return completed_; }

 private:
  struct Job {
    ServiceRequest req;
    Duration remaining = Duration::zero();
  };

  void start(Job job) {
    active_ = job;
    active_started_ = loop_->now();
    completion_timer_.restart(job.remaining, [this] { on_work_slice_done(); });
  }

  /// Charges the class account for work done since the job (re)started.
  void account_progress() {
    SPEAKUP_ASSERT(active_.has_value());
    const Duration done = loop_->now() - active_started_;
    const Duration charged = std::min(done, active_->remaining);
    active_->remaining -= charged;
    if (active_->req.cls == http::ClientClass::kGood) {
      good_busy_time_ += charged;
    } else if (active_->req.cls == http::ClientClass::kBad) {
      bad_busy_time_ += charged;
    }
  }

  void on_work_slice_done() {
    SPEAKUP_ASSERT(busy());
    account_progress();
    SPEAKUP_ASSERT(active_->remaining == Duration::zero());
    const ServiceRequest done = active_->req;
    active_.reset();
    ++completed_;
    if (on_complete_) on_complete_(done);
  }

  sim::EventLoop* loop_;
  double capacity_rps_;
  util::RngStream rng_;
  std::function<void(const ServiceRequest&)> on_complete_;
  std::optional<Job> active_;
  SimTime active_started_;
  std::map<std::uint64_t, Job> suspended_;
  sim::Timer completion_timer_;
  Duration good_busy_time_ = Duration::zero();
  Duration bad_busy_time_ = Duration::zero();
  std::int64_t completed_ = 0;
};

}  // namespace speakup::server
