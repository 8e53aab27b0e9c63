// Drop-tail FIFO queue attached to each link direction.
//
// Capacity is in bytes (wire size). An arriving packet that does not fit is
// dropped — the only loss mechanism in the simulator, as in a real drop-tail
// router. Drop and occupancy counters feed the experiment reports.
//
// Storage is a growable ring buffer rather than std::deque: a deque
// allocates and frees chunk blocks continuously while traffic streams
// through it, whereas the ring doubles a few times early on and then stays
// allocation-free for the rest of the run.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "util/assert.hpp"

namespace speakup::net {

class DropTailQueue {
 public:
  explicit DropTailQueue(Bytes capacity_bytes) : capacity_(capacity_bytes) {
    SPEAKUP_ASSERT(capacity_bytes > 0);
  }

  /// Attempts to enqueue; returns false (and counts a drop) on overflow.
  bool push(Packet p) {
    if (occupancy_ + p.wire_size > capacity_) {
      ++drops_;
      dropped_bytes_ += p.wire_size;
      return false;
    }
    occupancy_ += p.wire_size;
    ++enqueued_;
    if (count_ == ring_.size()) grow();
    ring_[(head_ + count_) % ring_.size()] = std::move(p);
    ++count_;
    return true;
  }

  /// Removes and returns the head packet; empty queue yields nullopt.
  std::optional<Packet> pop() {
    if (count_ == 0) return std::nullopt;
    Packet p = std::move(ring_[head_]);
    head_ = (head_ + 1) % ring_.size();
    --count_;
    occupancy_ -= p.wire_size;
    SPEAKUP_ASSERT(occupancy_ >= 0);
    return p;
  }

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size_packets() const { return count_; }
  [[nodiscard]] Bytes size_bytes() const { return occupancy_; }
  [[nodiscard]] Bytes capacity() const { return capacity_; }
  [[nodiscard]] std::int64_t drops() const { return drops_; }
  [[nodiscard]] Bytes dropped_bytes() const { return dropped_bytes_; }
  [[nodiscard]] std::int64_t enqueued() const { return enqueued_; }

 private:
  void grow() {
    std::vector<Packet> bigger(ring_.empty() ? 2 : ring_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(ring_[(head_ + i) % ring_.size()]);
    }
    ring_ = std::move(bigger);
    head_ = 0;
  }

  Bytes capacity_;
  Bytes occupancy_ = 0;
  std::int64_t drops_ = 0;
  Bytes dropped_bytes_ = 0;
  std::int64_t enqueued_ = 0;
  std::vector<Packet> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace speakup::net
