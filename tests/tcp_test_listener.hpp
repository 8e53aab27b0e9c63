// Test-only TcpConnection::Listener that forwards each hook to a
// std::function, so a test can wire ad-hoc lambdas to a connection.
//
//   transport::test::FnListeners listeners;  // must outlive the hooks' use
//   auto& cbs = listeners.attach(conn);
//   cbs.data = [&](Bytes n) { delivered += n; };
#pragma once

#include <deque>
#include <functional>

#include "transport/tcp_connection.hpp"

namespace speakup::transport::test {

class FnListener final : public TcpConnection::Listener {
 public:
  std::function<void()> established;
  std::function<void(Bytes newly_delivered)> data;
  std::function<void(Bytes total_acked)> acked;
  std::function<void()> reset;

  void on_established(TcpConnection& /*conn*/) override {
    if (established) established();
  }
  void on_data(TcpConnection& /*conn*/, Bytes newly_delivered) override {
    if (data) data(newly_delivered);
  }
  void on_acked(TcpConnection& /*conn*/, Bytes total_acked) override {
    if (acked) acked(total_acked);
  }
  void on_reset(TcpConnection& /*conn*/) override {
    if (reset) reset();
  }
};

/// Owns the FnListeners of one test; addresses stay stable as it grows.
class FnListeners {
 public:
  /// A fresh listener with no hooks set, already attached to `conn`.
  FnListener& attach(TcpConnection& conn) {
    FnListener& l = store_.emplace_back();
    conn.set_listener(&l);
    return l;
  }

 private:
  std::deque<FnListener> store_;
};

}  // namespace speakup::transport::test
