// speakup-lint: hot-path (allocation-free steady state; growth sites must
// be amortized and allowlisted in tools/lint_allowlist.txt)
//
// The one store of TCP connections for a whole Network.
//
// Every connection any host of the network holds occupies one record of a
// util::Slab: the connection itself, and whether it waits on a deferred
// destroy. The hosts' demux tables store the records' dense 32-bit slot
// ids; the rest of the stack holds TcpConnection&, which the slab's chunks
// keep valid. Freed records are reused LIFO, so the slab grows only when
// the network reaches a new peak of live connections. At 10^5 client hosts
// that peak is about 2,000 connections: connection memory follows the live
// connections, not the hosts that ever opened one.
#pragma once

#include <cstdint>
#include <utility>

#include "net/network.hpp"
#include "sim/event_loop.hpp"
#include "transport/tcp_connection.hpp"
#include "util/assert.hpp"
#include "util/audit.hpp"
#include "util/slab.hpp"

namespace speakup::transport {

/// One connection and its teardown state.
struct ConnectionRecord {
  template <typename... Args>
  explicit ConnectionRecord(Args&&... args) : conn(std::forward<Args>(args)...) {}

  TcpConnection conn;
  sim::EventId release_ev;  // the pending destroy while releasing
  bool releasing = false;   // closed, waiting for release_ev
};

/// 256 records (about 110 KB) a chunk.
class ConnectionSlab : public util::Slab<ConnectionRecord, 256> {
 public:
  /// The slab that every host of `net` shares.
  static ConnectionSlab& of(net::Network& net) { return net.attachment<ConnectionSlab>(); }

  /// Every host destroys its connections first (Network destroys the slab
  /// after its nodes).
  ~ConnectionSlab() { SPEAKUP_ASSERT(in_use() == 0); }

#if SPEAKUP_AUDIT_ENABLED
  /// Structural audit (SPEAKUP_AUDIT builds only): the slab's own audit,
  /// then every releasing record holds a pending destroy event and every
  /// live record is found by its host's demux under its own key. Hosts run
  /// it every kAuditPeriod + size() destroys, and from Host::audit.
  void audit() const;
  void maybe_audit() {
    if (--audit_countdown_ == 0) {
      audit();
      audit_countdown_ = kAuditPeriod + size();  // O(size) per audit
    }
  }

 private:
  static constexpr std::uint32_t kAuditPeriod = 64;
  std::uint32_t audit_countdown_ = kAuditPeriod;
#endif
};

}  // namespace speakup::transport
