// The observability hub: one Observer per run owns a MetricsRegistry and a
// Tracer and exposes the typed probe catalog the instrumented layers call.
//
// Wiring: components do not hold observer pointers. Every component already
// reaches its sim::EventLoop, and the loop stores an untyped
// `obs::Observer*` (set by Observer's constructor, cleared by its
// destructor). A probe site is therefore one line:
//
//     if (auto* o = loop().observer()) o->on_link_drop(bytes);
//
// With no observer attached the cost is a pointer load and a
// never-taken branch — no allocation, no event-count change, no
// fingerprint drift (tests/obs_invariance_test.cpp pins this).
//
// Sampling rides the event loop's sample hook (a deadline compare inside
// step(); see sim/event_loop.hpp), NOT a scheduled event, so enabling
// metrics does not change `events_executed` — scenario fingerprints are
// byte-identical with observability on or off.
//
// The probe catalog (names as they appear in metrics.json / traces) is
// documented in docs/observability.md; keep the two in sync.
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/event_loop.hpp"
#include "util/units.hpp"

namespace speakup::obs {

/// Client class as the probes see it. Mirrors http::ClientClass value for
/// value (kGood=0, kBad=1, kOther=2) so call sites can static_cast.
enum class Cls : std::uint8_t { kGood = 0, kBad = 1, kOther = 2 };

class Observer {
 public:
  struct Options {
    bool metrics = false;  // maintain the registry + interval sampling
    bool trace = false;    // record flight-recorder events
    Duration sample_interval = Duration::seconds(1.0);
    std::size_t trace_capacity = Tracer::kDefaultCapacity;
  };

  /// Attaches to `loop` (observer pointer + sample hook) for its lifetime.
  /// Construct after the experiment is built and destroy (or detach) after
  /// the run; the loop must outlive the Observer.
  Observer(sim::EventLoop& loop, const Options& opts);
  ~Observer();

  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] Tracer& tracer() { return tracer_; }
  [[nodiscard]] const Tracer& tracer() const { return tracer_; }
  [[nodiscard]] bool metrics_enabled() const { return opts_.metrics; }
  [[nodiscard]] bool trace_enabled() const { return opts_.trace; }
  [[nodiscard]] Duration sample_interval() const { return opts_.sample_interval; }

  /// Takes the final (end-of-run) sample and stops sampling. Idempotent.
  void finish();

  // --- probe catalog ---------------------------------------------------------
  // All probes are safe to call with either half disabled; each guards on
  // its own flag. Names passed to the tracer must be string literals.

  // net::Link
  void on_link_enqueue(Bytes wire) {
    if (opts_.metrics) {
      link_queue_bytes_ += wire;
      metrics_.inc(c_link_enqueued_);
    }
  }
  void on_link_dequeue(Bytes wire) {
    if (opts_.metrics) link_queue_bytes_ -= wire;
  }
  void on_link_drop(Bytes wire) {
    if (opts_.metrics) metrics_.inc(c_link_drops_);
    if (opts_.trace) {
      tracer_.instant("link_drop", "net", loop_->now(), 0, "bytes",
                      static_cast<double>(wire));
    }
  }

  // transport::TcpConnection
  void on_tcp_retransmit(double cwnd_bytes) {
    if (opts_.metrics) {
      metrics_.inc(c_tcp_retransmits_);
      metrics_.observe(h_tcp_cwnd_, cwnd_bytes);
    }
  }
  void on_tcp_rto_backoff(Duration new_rto) {
    if (opts_.metrics) metrics_.inc(c_tcp_rto_backoffs_);
    if (opts_.trace) {
      tracer_.instant("rto_backoff", "transport", loop_->now(), 0, "rto_ms",
                      new_rto.sec() * 1000.0);
    }
  }

  // core::FrontEnd (all defenses)
  void on_admission(Cls cls, double price, bool direct) {
    if (opts_.metrics) {
      metrics_.inc(cls == Cls::kGood   ? c_admitted_good_
                   : cls == Cls::kBad  ? c_admitted_bad_
                                       : c_admitted_other_);
      if (direct) metrics_.inc(c_admitted_direct_);
      metrics_.observe(h_admission_price_, price);
    }
    if (opts_.trace) {
      tracer_.instant("admission", "core", loop_->now(), 0, "price", price);
    }
  }
  void on_rejection() {
    if (opts_.metrics) metrics_.inc(c_rejections_);
  }
  void on_auction_clear(double price) {
    if (opts_.metrics) {
      metrics_.inc(c_auctions_);
      metrics_.observe(h_clearing_price_, price);
    }
    if (opts_.trace) {
      tracer_.instant("auction_clear", "core", loop_->now(), 0, "price", price);
    }
  }
  void on_channel_expired(double wasted_bytes) {
    if (opts_.metrics) {
      metrics_.inc(c_expirations_);
      metrics_.observe(h_wasted_payment_, wasted_bytes);
    }
  }
  void on_quantum_suspension() {
    if (opts_.metrics) metrics_.inc(c_suspensions_);
    if (opts_.trace) tracer_.instant("suspension", "core", loop_->now(), 0);
  }
  void on_abort() {
    if (opts_.metrics) metrics_.inc(c_aborts_);
  }
  void on_elastic_scale(double scale) {
    if (opts_.metrics) {
      metrics_.inc(c_elastic_scale_ups_);
      elastic_scale_ = scale;
    }
    if (opts_.trace) {
      tracer_.instant("elastic_scale_up", "core", loop_->now(), 0, "scale", scale);
    }
  }
  void on_puzzle_admitted(double waited_seconds) {
    if (opts_.metrics) {
      metrics_.inc(c_puzzles_admitted_);
      metrics_.observe(h_puzzle_wait_, waited_seconds);
    }
  }
  void on_puzzle_solved() {
    if (opts_.metrics) metrics_.inc(c_puzzles_solved_);
  }

  // client::ClientPool / client::Strategy
  void on_payment_started(std::uint32_t client) {
    if (opts_.metrics) metrics_.inc(c_payments_started_);
    if (opts_.trace) {
      tracer_.instant("payment_start", "client", loop_->now(), client + 1);
    }
  }
  void on_payment_declined(std::uint32_t client) {
    if (opts_.metrics) metrics_.inc(c_payments_declined_);
    if (opts_.trace) {
      tracer_.instant("payment_declined", "client", loop_->now(), client + 1);
    }
  }
  void on_payment_abandoned(std::uint32_t client) {
    if (opts_.metrics) metrics_.inc(c_defections_);
    if (opts_.trace) {
      tracer_.instant("defection", "client", loop_->now(), client + 1);
    }
  }
  /// Full request lifecycle span on the client's own track; `disposition`
  /// is 0 = served, 1 = denied, 2 = busy-rejected. A request that paid also
  /// gets a nested payment span [pay_started, now].
  void on_request_finish(std::uint32_t client, SimTime started, int disposition,
                         bool paid, SimTime pay_started) {
    if (opts_.metrics) {
      metrics_.inc(disposition == 0   ? c_requests_served_
                   : disposition == 1 ? c_requests_denied_
                                      : c_requests_busy_);
    }
    if (opts_.trace) {
      const SimTime now = loop_->now();
      tracer_.span("request", "client", started, now - started, client + 1,
                   "disposition", static_cast<double>(disposition));
      if (paid) {
        tracer_.span("payment", "client", pay_started, now - pay_started, client + 1);
      }
    }
  }

 private:
  /// EventLoop sample-hook trampoline: samples at each elapsed interval
  /// boundary and returns the next deadline.
  static std::int64_t sample_hook(void* ctx, std::int64_t now_ns);

  void register_catalog();

  sim::EventLoop* loop_;
  Options opts_;
  MetricsRegistry metrics_;
  Tracer tracer_;
  std::int64_t next_sample_ns_ = 0;
  bool finished_ = false;

  // Incrementally-maintained aggregates polled by gauges.
  std::int64_t link_queue_bytes_ = 0;
  double elastic_scale_ = 1.0;

  // Dense metric ids (registered once in register_catalog()).
  MetricId c_link_enqueued_ = 0;
  MetricId c_link_drops_ = 0;
  MetricId c_tcp_retransmits_ = 0;
  MetricId c_tcp_rto_backoffs_ = 0;
  MetricId c_admitted_good_ = 0;
  MetricId c_admitted_bad_ = 0;
  MetricId c_admitted_other_ = 0;
  MetricId c_admitted_direct_ = 0;
  MetricId c_rejections_ = 0;
  MetricId c_auctions_ = 0;
  MetricId c_expirations_ = 0;
  MetricId c_suspensions_ = 0;
  MetricId c_aborts_ = 0;
  MetricId c_elastic_scale_ups_ = 0;
  MetricId c_puzzles_admitted_ = 0;
  MetricId c_puzzles_solved_ = 0;
  MetricId c_payments_started_ = 0;
  MetricId c_payments_declined_ = 0;
  MetricId c_defections_ = 0;
  MetricId c_requests_served_ = 0;
  MetricId c_requests_denied_ = 0;
  MetricId c_requests_busy_ = 0;
  MetricId h_tcp_cwnd_ = 0;
  MetricId h_admission_price_ = 0;
  MetricId h_clearing_price_ = 0;
  MetricId h_wasted_payment_ = 0;
  MetricId h_puzzle_wait_ = 0;
};

}  // namespace speakup::obs
