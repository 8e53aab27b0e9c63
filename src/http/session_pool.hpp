// Owns MessageStreams and destroys them safely.
//
// A MessageStream must not be torn down while one of its callbacks is on
// the stack (the callback object lives in the TcpConnection). The pool
// therefore defers retirement to the next event-loop tick. Both the thinner
// and the clients use a pool for every stream they create or accept.
//
// Streams live in a util::Slab (64 a chunk, stable addresses) and are never
// erased from it: retire() parks a stream on the deferred tick, and adopt()
// rebinds the most recently parked stream (keeping its outbox ring
// capacity) before it constructs a new one. After warm-up, stream churn —
// the dominant per-request cost at 10^5-client scale — touches the
// allocator not at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "http/message_stream.hpp"
#include "sim/event_loop.hpp"
#include "util/slab.hpp"

namespace speakup::http {

class SessionPool {
 public:
  explicit SessionPool(sim::EventLoop& loop) : loop_(&loop) {}

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  /// The slab destroys every stream; a park event left pending would fire
  /// into a dead pool.
  ~SessionPool() {
    for (std::uint32_t id = 0; id < sessions_.size(); ++id) {
      if (sessions_[id].state == State::kRetiring) loop_->cancel(sessions_[id].park_ev);
    }
  }

  /// Wraps `conn` in a MessageStream owned by this pool. The reference is
  /// stable until retire().
  MessageStream& adopt(transport::TcpConnection& conn) {
    ++live_;
    if (!parked_.empty()) {
      Session& s = sessions_[parked_.back()];
      parked_.pop_back();
      s.state = State::kLive;
      s.stream.rebind(conn);
      return s.stream;
    }
    const std::uint32_t id = sessions_.emplace(conn);
    sessions_[id].stream.pool_slot_ = id;
    return sessions_[id].stream;
  }

  /// Aborts the stream's connection (if alive) and parks the stream for
  /// reuse on the next tick (the caller may be inside one of s's
  /// callbacks). A stream already retired, or another pool's, is ignored.
  void retire(MessageStream* s) {
    if (s == nullptr) return;
    const std::uint32_t id = s->pool_slot_;
    if (id >= sessions_.size() || &sessions_[id].stream != s) return;
    Session& session = sessions_[id];
    if (session.state != State::kLive) return;
    s->abort();
    session.state = State::kRetiring;
    --live_;
    session.park_ev = loop_->schedule(Duration::zero(), [this, id] {
      sessions_[id].state = State::kParked;
      parked_.push_back(id);
    });
  }

  [[nodiscard]] std::size_t live() const { return live_; }

 private:
  enum class State : std::uint8_t { kLive, kRetiring, kParked };

  struct Session {
    explicit Session(transport::TcpConnection& conn) : stream(conn) {}
    MessageStream stream;
    sim::EventId park_ev;  // the pending park while kRetiring
    State state = State::kLive;
  };

  sim::EventLoop* loop_;
  util::Slab<Session, 64> sessions_;
  std::vector<std::uint32_t> parked_;  // most recently parked last
  std::size_t live_ = 0;
};

}  // namespace speakup::http
