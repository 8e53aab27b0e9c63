// speakup-lint: hot-path (allocation-free steady state; growth sites must
// be amortized and allowlisted in tools/lint_allowlist.txt)
//
// The one store of TCP connections for a whole Network.
//
// Every connection any host of the network holds occupies one record: the
// connection's bytes, its slot state and the deferred-destroy event a
// closed connection waits on. Records sit in fixed-size chunks that never
// move (the rest of the stack holds TcpConnection&) and are addressed by
// dense 32-bit slot ids, which the hosts' demux tables store. A freed
// record is linked into a LIFO free list through its `next_free` index, as
// in net::PacketPool, so the slab grows only when the network reaches a
// new peak of live connections. At 10^5 client hosts that peak is about
// 2,000 connections: connection memory follows the live connections, not
// the hosts that ever opened one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "sim/event_loop.hpp"
#include "transport/tcp_connection.hpp"
#include "util/assert.hpp"
#include "util/audit.hpp"

namespace speakup::transport {

class ConnectionSlab {
 public:
  enum class SlotState : std::uint8_t { kEmpty, kLive, kReleasing };
  static constexpr std::uint32_t kNil = UINT32_MAX;
  /// Records per chunk (about 110 KB). A power of two, so slot -> record is
  /// a shift and a mask.
  static constexpr std::uint32_t kChunk = 256;

  struct Record {
    alignas(TcpConnection) std::byte bytes[sizeof(TcpConnection)];
    sim::EventId release_ev;         // the pending destroy while kReleasing
    std::uint32_t next_free = kNil;  // free-list successor while kEmpty
    SlotState state = SlotState::kEmpty;

    [[nodiscard]] TcpConnection* conn() {
      return std::launder(reinterpret_cast<TcpConnection*>(bytes));
    }
    [[nodiscard]] const TcpConnection* conn() const {
      return std::launder(reinterpret_cast<const TcpConnection*>(bytes));
    }
  };

  /// The slab that every host of `net` shares.
  static ConnectionSlab& of(net::Network& net) { return net.attachment<ConnectionSlab>(); }

  ConnectionSlab() = default;
  ConnectionSlab(const ConnectionSlab&) = delete;
  ConnectionSlab& operator=(const ConnectionSlab&) = delete;
  /// Every host destroys its connections first (Network destroys the slab
  /// after its nodes).
  ~ConnectionSlab() { SPEAKUP_ASSERT(in_use_ == 0); }

  /// Constructs a live connection in a free record, growing the slab by
  /// one chunk at a new peak of live connections. Returns its slot.
  template <typename... Args>
  std::uint32_t emplace(Args&&... args) {
    std::uint32_t slot;
    if (free_head_ != kNil) {
      slot = free_head_;
      free_head_ = (*this)[slot].next_free;
    } else {
      slot = size_++;
      if (slot % kChunk == 0) {
        chunks_.push_back(std::make_unique_for_overwrite<Record[]>(kChunk));
      }
    }
    Record& r = (*this)[slot];
    ::new (static_cast<void*>(r.bytes)) TcpConnection(std::forward<Args>(args)...);
    r.state = SlotState::kLive;
    ++in_use_;
    return slot;
  }

  /// Destroys the connection in `slot` and puts the record on the free list.
  void destroy(std::uint32_t slot) {
    Record& r = (*this)[slot];
    SPEAKUP_ASSERT(r.state != SlotState::kEmpty);
    r.conn()->~TcpConnection();
    r.state = SlotState::kEmpty;
    r.next_free = free_head_;
    free_head_ = slot;
    --in_use_;
  }

  [[nodiscard]] Record& operator[](std::uint32_t slot) {
    return chunks_[slot / kChunk][slot % kChunk];
  }
  [[nodiscard]] const Record& operator[](std::uint32_t slot) const {
    return chunks_[slot / kChunk][slot % kChunk];
  }

  /// Records ever handed out: the network's peak of live connections.
  [[nodiscard]] std::uint32_t size() const { return size_; }
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }
  /// Records holding a connection (live or waiting for its destroy).
  [[nodiscard]] std::uint32_t in_use() const { return in_use_; }

#if SPEAKUP_AUDIT_ENABLED
  /// Structural audit (SPEAKUP_AUDIT builds only): the free list covers
  /// exactly the empty records, every releasing record holds a pending
  /// destroy event, and every non-empty record is found by its
  /// host's demux under its own key. Hosts run it every
  /// kAuditPeriod + size() destroys, and from Host::audit.
  void audit() const;
  void maybe_audit() {
    if (--audit_countdown_ == 0) {
      audit();
      audit_countdown_ = kAuditPeriod + size_;  // O(size) per audit
    }
  }
#endif

 private:
  std::vector<std::unique_ptr<Record[]>> chunks_;
  std::uint32_t size_ = 0;
  std::uint32_t free_head_ = kNil;
  std::uint32_t in_use_ = 0;
#if SPEAKUP_AUDIT_ENABLED
  static constexpr std::uint32_t kAuditPeriod = 64;
  std::uint32_t audit_countdown_ = kAuditPeriod;
#endif
};

}  // namespace speakup::transport
