// Drop-tail FIFO queue attached to each link direction.
//
// Capacity is in bytes (wire size). An arriving packet that does not fit is
// dropped — the only loss mechanism in the simulator, as in a real drop-tail
// router. Drop and occupancy counters feed the experiment reports.
//
// The queue stores no packets of its own. Every packet a link holds —
// queued, serializing onto the wire, or propagating — is one record of the
// network-wide PacketSlab, and a queued record is linked head -> tail
// through its `next` index. Enqueueing constructs the record, dequeueing
// hands the very same record on to the transmitter, so a packet is copied
// once on its way through a link and an idle queue costs a few words, not a
// buffer. Records recycle through the slab, which so grows only to the
// network-wide peak of packets held at once, not to the sum of every link's
// own peak (with 10^5 access links, per-link stores cost more than the
// packets).
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/packet.hpp"
#include "util/assert.hpp"
#include "util/audit.hpp"
#include "util/slab.hpp"

namespace speakup::net {

/// A packet a link holds, and its link in a drop-tail queue's list.
struct PacketRecord {
  Packet pkt;
  std::uint32_t next = util::kNil;
};

/// The store of every packet a network's links hold (256 records, 14 KB, a
/// chunk).
using PacketSlab = util::Slab<PacketRecord, 256>;

class DropTailQueue {
 public:
  explicit DropTailQueue(Bytes capacity_bytes) : capacity_(capacity_bytes) {
    SPEAKUP_ASSERT(capacity_bytes > 0);
  }

  DropTailQueue(const DropTailQueue&) = delete;
  DropTailQueue& operator=(const DropTailQueue&) = delete;

  /// Enqueues `p` in a record of `pool`; returns false (counting a drop and
  /// taking no record) on overflow.
  bool push(PacketSlab& pool, const Packet& p) {
    if (occupancy_ + p.wire_size > capacity_) {
      ++drops_;
      dropped_bytes_ += p.wire_size;
      return false;
    }
    occupancy_ += p.wire_size;
    ++enqueued_;
    list_.push_back(pool, pool.emplace(PacketRecord{p}));
    return true;
  }

  /// Unlinks the head record and returns its index, or util::kNil when
  /// empty. The record stays live: the caller transmits it and erases it
  /// later.
  std::uint32_t pop(PacketSlab& pool) {
    if (list_.count == 0) return util::kNil;
    const std::uint32_t slot = list_.pop_front(pool);
    occupancy_ -= pool[slot].pkt.wire_size;
    SPEAKUP_ASSERT(occupancy_ >= 0);
    return slot;
  }

  [[nodiscard]] bool empty() const { return list_.count == 0; }
  [[nodiscard]] std::size_t size_packets() const { return list_.count; }
  [[nodiscard]] Bytes size_bytes() const { return occupancy_; }
  [[nodiscard]] Bytes capacity() const { return capacity_; }
  [[nodiscard]] std::int64_t drops() const { return drops_; }
  [[nodiscard]] Bytes dropped_bytes() const { return dropped_bytes_; }
  [[nodiscard]] std::int64_t enqueued() const { return enqueued_; }
#if SPEAKUP_AUDIT_ENABLED
  /// The queued records, for the structural audit.
  [[nodiscard]] const util::IndexList<&PacketRecord::next>& list() const { return list_; }
#endif

 private:
  Bytes capacity_;
  Bytes occupancy_ = 0;
  std::int64_t drops_ = 0;
  Bytes dropped_bytes_ = 0;
  std::int64_t enqueued_ = 0;
  util::IndexList<&PacketRecord::next> list_;
};

}  // namespace speakup::net
