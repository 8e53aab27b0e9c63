// speakup-lint: hot-path (allocation-free steady state; growth sites must
// be amortized and allowlisted in tools/lint_allowlist.txt)
//
// The one store of packet records for a whole Network.
//
// Every packet a link holds — waiting in a drop-tail queue, serializing
// onto the wire, or propagating — occupies one record here. A record is
// addressed by a dense 32-bit index and carries a `next` index: a queued
// record is linked head -> tail through it (see DropTailQueue), and a free
// record is linked into the pool's free list through it. Records are
// recycled, so the pool grows only to the network-wide high-water mark of
// packets in flight, not to the sum of every link's private high-water mark
// (with 10^5 access links, per-link stores cost more than the packets).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "util/assert.hpp"
#include "util/audit.hpp"

namespace speakup::net {

class PacketPool {
 public:
  static constexpr std::uint32_t kNil = UINT32_MAX;

#if SPEAKUP_AUDIT_ENABLED
  /// Where a record is, as the structural audit sees it.
  enum class Where : std::uint8_t { kFree, kQueued, kInFlight };
#endif

  struct Record {
    Packet pkt;
    std::uint32_t next = kNil;  // queue successor, or free-list successor
    SPEAKUP_AUDIT_ONLY(Where where = Where::kFree;)
  };

  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Takes a record off the free list (growing the pool at the high-water
  /// mark) and stores `p` in it. The record is in flight until release()
  /// or a queue links it. Indices stay valid across growth; references do
  /// not.
  std::uint32_t acquire(const Packet& p) {
    std::uint32_t slot;
    if (free_head_ != kNil) {
      slot = free_head_;
      free_head_ = records_[slot].next;
    } else {
      slot = static_cast<std::uint32_t>(records_.size());
      records_.emplace_back();
    }
    Record& r = records_[slot];
    r.pkt = p;
    r.next = kNil;
    SPEAKUP_AUDIT_ONLY(r.where = Where::kInFlight;)
    ++in_use_;
    return slot;
  }

  /// Returns a record to the free list.
  void release(std::uint32_t slot) {
    SPEAKUP_ASSERT(in_use_ > 0);
    records_[slot].next = free_head_;
    SPEAKUP_AUDIT_ONLY(records_[slot].where = Where::kFree;)
    free_head_ = slot;
    --in_use_;
  }

  [[nodiscard]] Record& operator[](std::uint32_t slot) { return records_[slot]; }
  [[nodiscard]] const Record& operator[](std::uint32_t slot) const { return records_[slot]; }

  /// Records ever created (the high-water mark of packets held at once).
  [[nodiscard]] std::size_t capacity() const { return records_.size(); }
  /// Records currently queued or in flight.
  [[nodiscard]] std::size_t in_use() const { return in_use_; }

#if SPEAKUP_AUDIT_ENABLED
  [[nodiscard]] std::uint32_t free_head() const { return free_head_; }
#endif

 private:
  std::vector<Record> records_;
  std::uint32_t free_head_ = kNil;
  std::size_t in_use_ = 0;
};

}  // namespace speakup::net
