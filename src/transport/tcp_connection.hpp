// One endpoint of a simulated TCP connection.
//
// Implements the congestion-control behaviours the speak-up evaluation
// depends on: 3-way handshake (SYN loss costs a full RTO), slow start,
// AIMD congestion avoidance, fast retransmit/recovery (NewReno-style
// partial-ack handling), RTO with exponential backoff and Karn's rule,
// and RFC 6298 RTT estimation.
//
// Data is modeled as byte counts. Applications call write(n) to append n
// bytes to the stream; the receiving endpoint's Listener::on_data reports
// in-order arrival. peer() exposes the other endpoint — a simulation
// shortcut used by the message layer to pass typed message descriptors
// alongside the faithfully-simulated bytes.
//
// Memory note: at 10^5-client scale every client host holds connection
// slots, so the object carries no per-connection copies of shared state:
// the config is read through a pointer to the host's TcpConfig, the
// application is one Listener pointer plus one untyped handle, and the RTO
// timer stores no callback (see sim/timer.hpp). tests/transport_test.cpp
// pins the resulting size.
#pragma once

#include <cstdint>

#include "net/packet.hpp"
#include "sim/timer.hpp"
#include "transport/ooo_tracker.hpp"
#include "transport/tcp_config.hpp"
#include "util/units.hpp"

namespace speakup::transport {

class Host;

class TcpConnection {
 public:
  enum class State { kSynSent, kSynReceived, kEstablished, kClosed };

  /// Application-facing event sink. The connection holds a non-owning
  /// pointer to it (nullptr: nobody listening); every hook is optional and
  /// names the connection, so one listener can serve many.
  class Listener {
   public:
    virtual void on_established(TcpConnection& /*conn*/) {}
    /// Receiver side: `newly_delivered` more in-order bytes arrived.
    virtual void on_data(TcpConnection& /*conn*/, Bytes /*newly_delivered*/) {}
    /// Sender side: the peer has acked `total_acked` stream bytes.
    virtual void on_acked(TcpConnection& /*conn*/, Bytes /*total_acked*/) {}
    /// Peer RST or local failure.
    virtual void on_reset(TcpConnection& /*conn*/) {}

   protected:
    ~Listener() = default;
  };

  TcpConnection(Host& host, std::uint32_t local_port, net::NodeId remote,
                std::uint32_t remote_port, const TcpConfig& cfg, bool initiator);

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;
  ~TcpConnection();

  /// Attaches (or, with nullptr, detaches) the application. The listener
  /// must outlive its attachment.
  void set_listener(Listener* listener) { listener_ = listener; }

  /// Appends `n` bytes to the outgoing stream.
  void write(Bytes n);

  /// Sends RST and tears the local endpoint down immediately.
  void abort();

  /// Packet entry point (called by Host demux).
  void on_packet(const net::Packet& p);

  // --- identity & state ---
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool established() const { return state_ == State::kEstablished; }
  [[nodiscard]] bool closed() const { return state_ == State::kClosed; }
  [[nodiscard]] std::uint32_t local_port() const { return local_port_; }
  [[nodiscard]] net::NodeId remote_node() const { return remote_; }
  [[nodiscard]] std::uint32_t remote_port() const { return remote_port_; }
  [[nodiscard]] Host& host() const { return *host_; }

  /// The opposite endpoint (simulation shortcut); nullptr before the
  /// handshake completes or after the peer closes.
  [[nodiscard]] TcpConnection* peer() const { return peer_; }

  /// Opaque slot for a higher layer to attach itself: http::MessageStream
  /// stores itself here so the peer's stream can find it. Only that layer
  /// writes it, so readers know the pointee's type.
  [[nodiscard]] void* app_handle() const { return app_handle_; }
  void set_app_handle(void* handle) { app_handle_ = handle; }

  // --- counters / introspection (used by tests and reports) ---
  /// Total bytes the application has submitted via write() — the
  /// app-side count, independent of how much has been transmitted yet
  /// (a window-limited connection reports the full amount immediately).
  /// For wire-side progress see bytes_sent() / bytes_acked().
  [[nodiscard]] Bytes bytes_written() const { return app_limit_; }
  /// Highest stream offset handed to the network so far (snd_nxt); always
  /// <= bytes_written(), and temporarily rewinds on a retransmission
  /// timeout (go-back-N restarts from the last cumulative ack).
  [[nodiscard]] Bytes bytes_sent() const { return snd_nxt_; }
  [[nodiscard]] Bytes bytes_acked() const { return snd_una_; }
  [[nodiscard]] Bytes bytes_delivered() const { return rcv_nxt_; }
  [[nodiscard]] double cwnd_bytes() const { return cwnd_; }
  [[nodiscard]] Duration srtt() const { return srtt_; }
  /// Current retransmission timeout, including any exponential backoff
  /// still in force (Karn's rule: backoff sticks until fresh data yields
  /// an RTT sample). Introspection for tests.
  [[nodiscard]] Duration rto() const { return rto_; }
  [[nodiscard]] std::int64_t retransmits() const { return retransmits_; }
  [[nodiscard]] std::int64_t timeouts() const { return timeouts_; }

 private:
  friend class Host;

  void start_handshake();
  void start_passive();
  void establish();
  void try_send();
  void send_segment(std::int64_t seq, Bytes len, bool retransmission);
  void send_ack();
  void handle_ack(std::int64_t ack);
  void handle_data(std::int64_t seq, Bytes len);
  void on_rto();
  void arm_rto();
  /// Karn-style exponential backoff: doubles the RTO (capped at
  /// cfg_->max_rto). Called exactly once per timer expiry — the single
  /// place backoff is applied, so no path can double-apply it.
  void backoff_rto();
  void take_rtt_sample(Duration sample);
  void enter_fast_recovery();
  void teardown(bool notify_app);
  void link_peer(TcpConnection* p) { peer_ = p; }

  [[nodiscard]] Bytes inflight() const { return snd_nxt_ - snd_una_; }

  Host* host_;
  const TcpConfig* cfg_;  // the host's; Host::set_tcp_config refuses while connections live
  std::uint32_t local_port_;
  net::NodeId remote_;
  std::uint32_t remote_port_;
  State state_;
  TcpConnection* peer_ = nullptr;
  void* app_handle_ = nullptr;
  Listener* listener_ = nullptr;

  // --- send side ---
  std::int64_t snd_una_ = 0;   // oldest unacked stream offset
  std::int64_t snd_nxt_ = 0;   // next offset to transmit
  std::int64_t app_limit_ = 0; // total bytes the app has written
  double cwnd_;
  double ssthresh_;
  int dupacks_ = 0;
  bool in_recovery_ = false;
  std::int64_t recover_ = 0;   // NewReno recovery point
  std::int64_t retransmits_ = 0;
  std::int64_t timeouts_ = 0;
  int syn_retries_ = 0;

  // --- RTT estimation (one timed segment at a time; Karn's rule) ---
  Duration srtt_ = Duration::zero();
  Duration rttvar_ = Duration::zero();
  bool have_rtt_ = false;
  Duration rto_;
  std::int64_t timed_seq_ = -1;  // -1: nothing being timed
  SimTime timed_sent_;
  SimTime syn_sent_at_;
  bool syn_retransmitted_ = false;

  sim::Timer rto_timer_;

  // --- receive side ---
  std::int64_t rcv_nxt_ = 0;
  OooTracker ooo_;  // out-of-order intervals past rcv_nxt_
};

}  // namespace speakup::transport
