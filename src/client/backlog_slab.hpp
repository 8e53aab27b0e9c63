// speakup-lint: hot-path (allocation-free steady state; growth sites must
// be amortized and allowlisted in tools/lint_allowlist.txt)
//
// The backlog store of one ClientPool: every member's FIFO of backlogged
// arrival times, in one slab of {when, next} nodes.
//
// A member's backlog is a Queue (head, tail, count) threaded through the
// slab's `next` indices; a popped node goes onto the slab's LIFO free list.
// So the slab grows only when the pool as a whole reaches a new peak of
// backlogged arrivals, and a member that has never backlogged costs its
// 12-byte Queue, not a buffer of its own. The steady state — members
// pushing and expiring arrivals at a stable total — reuses free nodes and
// never touches the allocator.
//
// Nodes sit in fixed-size chunks, times and links in separate arrays: 12
// bytes a node with no padding, and growth adds a chunk without copying
// (or holding twice) the nodes made so far. Bytes per node matter: in the
// paper's LAN figures each window-20 attacker holds ~400 arrivals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/audit.hpp"
#include "util/units.hpp"

namespace speakup::client {

class BacklogSlab {
 public:
  static constexpr std::uint32_t kNil = UINT32_MAX;
  /// Nodes per chunk (3 KB). A power of two, so node -> chunk is a shift
  /// and a mask.
  static constexpr std::uint32_t kChunk = 256;

  /// One member's backlog, oldest arrival at head.
  struct Queue {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t count = 0;
  };

  void push_back(Queue& q, SimTime when) {
    std::uint32_t n;
    if (free_head_ != kNil) {
      n = free_head_;
      free_head_ = next(n);
    } else {
      n = size_++;
      if (n % kChunk == 0) chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
    }
    chunk(n).when[n % kChunk] = when;
    next(n) = kNil;
    if (q.count == 0) {
      q.head = n;
    } else {
      next(q.tail) = n;
    }
    q.tail = n;
    ++q.count;
  }

  [[nodiscard]] SimTime front(const Queue& q) const {
    SPEAKUP_ASSERT(q.count > 0);
    return chunk(q.head).when[q.head % kChunk];
  }

  void pop_front(Queue& q) {
    SPEAKUP_ASSERT(q.count > 0);
    const std::uint32_t n = q.head;
    q.head = next(n);
    if (--q.count == 0) q.tail = kNil;
    next(n) = free_head_;
    free_head_ = n;
  }

  /// Nodes ever made: the pool's peak of backlogged arrivals at once.
  [[nodiscard]] std::uint32_t size() const { return size_; }

#if SPEAKUP_AUDIT_ENABLED
  /// Structural audit (SPEAKUP_AUDIT builds only), driven by
  /// ClientPool::audit(): every node is on exactly one of the free list and
  /// the given queues, and each queue's walk from head ends at its tail
  /// after exactly `count` nodes.
  void audit(std::span<const Queue> queues) const {
    std::vector<std::uint8_t> seen(size_, 0);
    const auto visit = [&](std::uint32_t n) {
      SPEAKUP_AUDIT_CHECK(n < size_, "BacklogSlab: node index out of range");
      SPEAKUP_AUDIT_CHECK(!seen[n], "BacklogSlab: node on two lists");
      seen[n] = 1;
    };
    std::size_t listed = 0;
    for (std::uint32_t n = free_head_; n != kNil; n = next(n), ++listed) visit(n);
    for (const Queue& q : queues) {
      std::uint32_t count = 0;
      std::uint32_t last = kNil;
      for (std::uint32_t n = q.head; n != kNil; last = n, n = next(n), ++count) visit(n);
      SPEAKUP_AUDIT_CHECK(count == q.count && last == q.tail,
                          "BacklogSlab: queue walk must match its count and tail");
      listed += count;
    }
    SPEAKUP_AUDIT_CHECK(listed == size_, "BacklogSlab: every node must be free or backlogged");
  }
#endif

 private:
  struct Chunk {
    SimTime when[kChunk];
    std::uint32_t next[kChunk];  // queue successor, or free-list successor
  };

  [[nodiscard]] Chunk& chunk(std::uint32_t n) const { return *chunks_[n / kChunk]; }
  [[nodiscard]] std::uint32_t& next(std::uint32_t n) const { return chunk(n).next[n % kChunk]; }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::uint32_t size_ = 0;
  std::uint32_t free_head_ = kNil;
};

}  // namespace speakup::client
