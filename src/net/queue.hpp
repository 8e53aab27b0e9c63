// Drop-tail FIFO queue attached to each link direction.
//
// Capacity is in bytes (wire size). An arriving packet that does not fit is
// dropped — the only loss mechanism in the simulator, as in a real drop-tail
// router. Drop and occupancy counters feed the experiment reports.
//
// The queue stores no packets of its own: a queued packet is a record of the
// network-wide PacketPool, linked head -> tail through the record's `next`
// index. Enqueueing takes a record from the pool, dequeueing hands the very
// same record on to the transmitter, so a packet is copied once on its way
// through a link and an idle queue costs a few words, not a buffer.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "util/assert.hpp"
#include "util/audit.hpp"

namespace speakup::net {

class DropTailQueue {
 public:
  explicit DropTailQueue(Bytes capacity_bytes) : capacity_(capacity_bytes) {
    SPEAKUP_ASSERT(capacity_bytes > 0);
  }

  DropTailQueue(const DropTailQueue&) = delete;
  DropTailQueue& operator=(const DropTailQueue&) = delete;

  /// Enqueues `p` in a record taken from `pool`; returns false (counting a
  /// drop and taking no record) on overflow.
  bool push(PacketPool& pool, const Packet& p) {
    if (occupancy_ + p.wire_size > capacity_) {
      ++drops_;
      dropped_bytes_ += p.wire_size;
      return false;
    }
    occupancy_ += p.wire_size;
    ++enqueued_;
    const std::uint32_t slot = pool.acquire(p);
    SPEAKUP_AUDIT_ONLY(pool[slot].where = PacketPool::Where::kQueued;)
    if (tail_ == kNil) {
      head_ = slot;
    } else {
      pool[tail_].next = slot;
    }
    tail_ = slot;
    ++count_;
    return true;
  }

  /// Unlinks the head record and returns its index, or kNil when empty. The
  /// record stays acquired: the caller transmits it and releases it later.
  std::uint32_t pop(PacketPool& pool) {
    if (head_ == kNil) return kNil;
    const std::uint32_t slot = head_;
    PacketPool::Record& r = pool[slot];
    head_ = r.next;
    if (head_ == kNil) tail_ = kNil;
    r.next = kNil;
    SPEAKUP_AUDIT_ONLY(r.where = PacketPool::Where::kInFlight;)
    --count_;
    occupancy_ -= r.pkt.wire_size;
    SPEAKUP_ASSERT(occupancy_ >= 0);
    return slot;
  }

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size_packets() const { return count_; }
  [[nodiscard]] Bytes size_bytes() const { return occupancy_; }
  [[nodiscard]] Bytes capacity() const { return capacity_; }
  [[nodiscard]] std::int64_t drops() const { return drops_; }
  [[nodiscard]] Bytes dropped_bytes() const { return dropped_bytes_; }
  [[nodiscard]] std::int64_t enqueued() const { return enqueued_; }
#if SPEAKUP_AUDIT_ENABLED
  /// Index of the head record (kNil when empty), for the structural audit;
  /// the list continues through PacketPool::Record::next.
  [[nodiscard]] std::uint32_t head() const { return head_; }
#endif

 private:
  static constexpr std::uint32_t kNil = PacketPool::kNil;

  Bytes capacity_;
  Bytes occupancy_ = 0;
  std::int64_t drops_ = 0;
  Bytes dropped_bytes_ = 0;
  std::int64_t enqueued_ = 0;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::uint32_t count_ = 0;
};

}  // namespace speakup::net
