// A restartable one-shot timer on top of EventLoop, used for protocol
// timeouts (TCP RTO, payment-channel expiry, client request timeouts).
// Restarting implicitly cancels the previous arming.
//
// The timer stores no callback of its own: the caller hands the callback
// to restart(), and it lives only in the event slab's inline buffer while
// the timer is armed. A Timer is therefore a loop pointer plus an EventId
// (24 bytes), which matters for the objects that embed one per connection
// or per request at 10^5-client scale. The event loop copies a callback out of the slab
// before invoking it, so a callback may destroy the Timer that armed it.
#pragma once

#include <utility>

#include "sim/event_loop.hpp"

namespace speakup::sim {

class Timer {
 public:
  explicit Timer(EventLoop& loop) : loop_(&loop) {}

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { cancel(); }

  /// (Re)arms the timer to fire `on_fire` `delay` from now. A still-pending
  /// timer is rescheduled in place and keeps the callback it was armed
  /// with, so every restart of one timer must pass the same callback. The
  /// dominant protocol pattern (every TCP ack re-arms the RTO) then costs
  /// two O(1) wheel link operations and nothing else.
  template <typename F>
  void restart(Duration delay, F&& on_fire) {
    if (id_.pending()) {
      id_ = loop_->reschedule(id_, delay);
      return;
    }
    id_ = loop_->schedule(delay, std::forward<F>(on_fire));
  }

  void cancel() {
    if (id_.pending()) loop_->cancel(id_);
  }

  [[nodiscard]] bool pending() const { return id_.pending(); }

 private:
  EventLoop* loop_;
  EventId id_;
};

}  // namespace speakup::sim
