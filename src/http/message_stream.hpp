// Message framing over a TcpConnection.
//
// The sender side queues message descriptors and writes the corresponding
// byte counts into the TCP stream; the receiver side watches in-order byte
// arrival and fires callbacks as message boundaries are crossed. Because
// payment POSTs must be credited *as the bytes arrive* (a partial payment
// still counts toward an auction bid — §3.3), the stream reports incremental
// body progress as well as message completion.
//
// A MessageStream is its connection's TcpConnection::Listener, and stores
// itself in the connection's app_handle so the peer endpoint's stream can
// read the descriptor queue — the simulation shortcut that lets typed
// messages ride on counted bytes.
//
// The descriptor queue is a growable ring (the DropTailQueue pattern)
// rather than a deque, and a detached stream can be rebound to a fresh
// connection with rebind(): http::SessionPool parks retired streams and
// reuses them, ring capacity and all, so steady-state stream churn at
// 10^5-client scale performs no heap allocation.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "http/message.hpp"
#include "transport/tcp_connection.hpp"
#include "util/assert.hpp"

namespace speakup::http {

class MessageStream final : private transport::TcpConnection::Listener {
 public:
  struct Callbacks {
    std::function<void(const Message&)> on_message;  // fully delivered
    /// Incremental in-order arrival of a message body (after its header).
    std::function<void(const Message&, Bytes newly)> on_body_progress;
    std::function<void()> on_established;
    /// Peer reset / connection failure.
    std::function<void()> on_reset;
    /// Sender side: total stream bytes acked by the peer.
    std::function<void(Bytes total_acked)> on_acked;
  };

  explicit MessageStream(transport::TcpConnection& conn) { attach(conn); }

  MessageStream(const MessageStream&) = delete;
  MessageStream& operator=(const MessageStream&) = delete;

  ~MessageStream() {
    if (conn_ != nullptr) detach(*conn_);
  }

  void set_callbacks(Callbacks cbs) { cbs_ = std::move(cbs); }

  /// Re-attaches a detached (aborted/reset) stream to a fresh connection,
  /// resetting framing state but keeping the ring's capacity. Only valid
  /// when the previous connection is gone (abort() or on_reset detached us).
  void rebind(transport::TcpConnection& conn) {
    SPEAKUP_ASSERT(conn_ == nullptr);
    cbs_ = {};
    head_ = 0;
    count_ = 0;
    inbound_header_left_ = -1;
    inbound_body_left_ = 0;
    attach(conn);
  }

  /// Queues a message for transmission.
  void send(Message m) {
    if (conn_ == nullptr) return;
    push_back(m);
    conn_->write(m.wire_bytes());
  }

  /// Aborts the underlying connection (RST).
  void abort() {
    if (conn_ != nullptr) {
      transport::TcpConnection* c = conn_;
      conn_ = nullptr;
      detach(*c);
      c->abort();
    }
  }

  [[nodiscard]] bool alive() const { return conn_ != nullptr && !conn_->closed(); }
  [[nodiscard]] transport::TcpConnection* connection() const { return conn_; }

 private:
  void attach(transport::TcpConnection& conn) {
    conn_ = &conn;
    conn.set_app_handle(this);
    conn.set_listener(this);
  }

  static void detach(transport::TcpConnection& conn) {
    conn.set_app_handle(nullptr);
    conn.set_listener(nullptr);
  }

  // --- TcpConnection::Listener ---------------------------------------------

  void on_established(transport::TcpConnection& /*conn*/) override {
    if (cbs_.on_established) cbs_.on_established();
  }
  void on_data(transport::TcpConnection& /*conn*/, Bytes n) override { consume(n); }
  void on_acked(transport::TcpConnection& /*conn*/, Bytes total) override {
    if (cbs_.on_acked) cbs_.on_acked(total);
  }
  void on_reset(transport::TcpConnection& /*conn*/) override {
    conn_ = nullptr;
    if (cbs_.on_reset) cbs_.on_reset();
  }

  // --- outbox ring (descriptors not yet fully consumed by the peer) -------

  [[nodiscard]] bool outbox_empty() const { return count_ == 0; }
  [[nodiscard]] Message& outbox_front() {
    SPEAKUP_ASSERT(count_ > 0);
    return ring_[head_];
  }

  void push_back(const Message& m) {
    if (count_ == ring_.size()) grow();
    ring_[(head_ + count_) % ring_.size()] = m;
    ++count_;
  }

  void pop_front() {
    SPEAKUP_ASSERT(count_ > 0);
    head_ = (head_ + 1) % ring_.size();
    --count_;
  }

  void grow() {
    const std::size_t old_cap = ring_.size();
    const std::size_t new_cap = old_cap == 0 ? 4 : old_cap * 2;
    std::vector<Message> bigger(new_cap);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = ring_[(head_ + i) % old_cap];
    }
    ring_.swap(bigger);
    head_ = 0;
  }

  /// Receiver path: `n` new in-order bytes arrived. Walk them through the
  /// peer's descriptor queue, firing progress/completion callbacks.
  void consume(Bytes n) {
    while (n > 0) {
      MessageStream* peer = peer_stream();
      if (peer == nullptr || peer->outbox_empty()) return;  // raced with teardown
      Message& front = peer->outbox_front();
      if (inbound_header_left_ < 0) inbound_header_left_ = kMessageHeaderBytes;
      if (inbound_header_left_ > 0) {
        const Bytes take = std::min(n, inbound_header_left_);
        inbound_header_left_ -= take;
        n -= take;
        if (inbound_header_left_ > 0) return;
        inbound_body_left_ = front.body;
      }
      if (inbound_body_left_ > 0) {
        const Bytes take = std::min(n, inbound_body_left_);
        inbound_body_left_ -= take;
        n -= take;
        if (take > 0 && cbs_.on_body_progress) cbs_.on_body_progress(front, take);
      }
      if (inbound_body_left_ == 0) {
        const Message done = front;
        peer->pop_front();
        inbound_header_left_ = -1;  // next message starts fresh
        if (cbs_.on_message) cbs_.on_message(done);
        // Callback may have aborted us; re-check.
        if (conn_ == nullptr) return;
      }
    }
  }

  [[nodiscard]] MessageStream* peer_stream() const {
    if (conn_ == nullptr) return nullptr;
    transport::TcpConnection* p = conn_->peer();
    if (p == nullptr) return nullptr;
    return static_cast<MessageStream*>(p->app_handle());
  }

  friend class SessionPool;

  transport::TcpConnection* conn_ = nullptr;
  std::uint32_t pool_slot_ = UINT32_MAX;  // this stream's record in its SessionPool
  Callbacks cbs_;
  std::vector<Message> ring_;  // outbox storage; [head_, head_ + count_) live
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  Bytes inbound_header_left_ = -1;  // -1: waiting for a new message
  Bytes inbound_body_left_ = 0;
};

}  // namespace speakup::http
