// Hierarchical timer wheel: the EventLoop's near-deadline store.
//
// Motivation: RTO-dominated workloads arm, cancel, and re-arm timers on
// every acknowledged flight. In a binary heap each of those re-arms is an
// O(log n) push plus a tombstone that later costs a pop and participates in
// compaction. In the wheel both schedule and cancel are O(1): an entry is
// linked into a doubly-linked slot list chosen by its deadline, and a
// cancelled entry is unlinked and recycled immediately — a timer that never
// fires (the overwhelmingly common case) never touches the heap at all.
//
// Structure: kLevels levels of 64 slots. A level-0 slot covers one tick
// (2^kTickBits ns ≈ 16.4 µs); each higher level covers 64× the span of the
// one below, so the whole wheel spans 64^5 ticks ≈ 4.9 h — past the 300 s
// default request timeout, so every protocol timer is wheel-resident.
// Deadlines within the current tick and deadlines past the span stay in
// the caller's overflow heap, which also remains the final ordering stage:
// the wheel never fires anything itself. The EventLoop *drains* due slots
// into its heap, where entries re-sort by their original (time, sequence)
// key, so the wheel is invisible to firing order — runs are bit-identical
// to a pure-heap loop by construction.
//
// The level of an entry is the bit-group of the highest bit in which its
// deadline tick differs from the wheel clock (`cur_tick_`), tokio-style.
// That choice makes every occupied slot lie strictly ahead of the cursor in
// the current rotation, which keeps `next_lower_bound_ns` a one-ctz-per-
// level scan with no wrap ambiguity.
//
// Nodes live in a slab recycled through a free list: steady-state insert /
// remove / drain perform zero heap allocations.
//
// speakup-lint: hot-path (allocation-free steady state; growth sites must
// be amortized and allowlisted in tools/lint_allowlist.txt)
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/audit.hpp"

namespace speakup::sim {

class TimerWheel {
 public:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  TimerWheel() {
    for (auto& level : heads_) {
      for (auto& head : level) head = kNil;
    }
  }
  static constexpr int kLevels = 5;
  static constexpr int kSlotBits = 6;
  static constexpr int kSlotsPerLevel = 1 << kSlotBits;  // 64
  static constexpr int kTickBits = 14;                   // 16.384 µs per tick

  /// What the caller stores per pending event (mirrors its heap entry).
  struct Entry {
    std::int64_t when_ns;
    std::uint64_t seq;
    std::uint32_t slot;  // the EventLoop's slab slot
    std::uint32_t gen;
  };

  /// Files `e` under the slot covering its deadline. Returns a node handle
  /// for remove(), or kNil when the deadline is out of the wheel's range —
  /// within the current (drained-past) tick or beyond the span — in which
  /// case the caller keeps the entry in its overflow heap.
  ///
  /// Level 0 (the next ~1 ms) is admitted like every other level. Packet-
  /// pipeline events landing there pay an insert + drain round-trip, but
  /// that costs less than it saves once the 300 s request timeouts are
  /// wheel-resident too: the heap then holds only the current tick, so
  /// each pop sifts through one or two entries instead of hundreds.
  /// Measured on the fig2 workload: level-0 admission alone +7% events/s,
  /// the fifth level alone +20%, both +39% (docs/performance.md, round 4).
  std::uint32_t insert(const Entry& e) {
    const std::int64_t when_tick = e.when_ns >> kTickBits;
    if (when_tick <= cur_tick_) return kNil;
    const auto diff =
        static_cast<std::uint64_t>(when_tick) ^ static_cast<std::uint64_t>(cur_tick_);
    const int level = (63 - std::countl_zero(diff)) / kSlotBits;
    if (level >= kLevels) return kNil;  // beyond the span
    const auto slot = static_cast<std::uint32_t>(
        (when_tick >> (level * kSlotBits)) & (kSlotsPerLevel - 1));
    const std::uint32_t node = acquire_node();
    Node& n = pool_[node];
    n.entry = e;
    n.level = static_cast<std::uint8_t>(level);
    n.slot = static_cast<std::uint8_t>(slot);
    link(node, level, slot);
    const std::int64_t start_ns = slot_start_tick(level, slot) << kTickBits;
    lb_hint_ns_ = size_ == 0 ? start_ns : (start_ns < lb_hint_ns_ ? start_ns : lb_hint_ns_);
    ++size_;
    return node;
  }

  /// O(1) unlink + recycle of a pending node (cancellation).
  void remove(std::uint32_t node) {
    SPEAKUP_ASSERT(node < pool_.size() && pool_[node].linked);
    unlink(node);
    release_node(node);
    --size_;
    if (size_ == 0) lb_hint_ns_ = INT64_MAX;
  }

  /// A valid lower bound on the earliest wheel deadline, readable without
  /// a bitmap scan. May be loose (too low) after removals and drains —
  /// never too high — so the caller uses it as a cheap "nothing can be
  /// due" filter and calls poll() only when the hint says otherwise.
  [[nodiscard]] std::int64_t lower_bound_hint_ns() const { return lb_hint_ns_; }

  /// Drains slots until no remaining slot could hold an entry firing at or
  /// before the caller's next event, then tightens the hint and returns
  /// the remaining lower bound (INT64_MAX when empty). `threshold_ns`
  /// starts as the caller's current frontier (heap top / run deadline) and
  /// tightens to the earliest emitted entry as the drain proceeds — an
  /// emitted entry IS the caller's new frontier, and stopping there keeps
  /// a momentarily-empty heap from swallowing the whole wheel. Draining a
  /// slot: entries still ahead of the wheel clock cascade into finer
  /// levels, and entries due within the current tick are handed to
  /// `sink(entry)` for the caller's heap, where they re-sort by their
  /// original (when, seq) key. Entries therefore reach the heap at most
  /// one tick (~16 µs) before they fire, which keeps the heap holding
  /// only the imminent frontier — the wheel's second structural win
  /// besides O(1) cancel.
  template <typename Sink>
  std::int64_t poll(std::int64_t threshold_ns, Sink&& sink) {
    for (;;) {
      int best_level = -1;
      std::int64_t best_start = INT64_MAX;
      for (int level = 0; level < kLevels; ++level) {
        if (bitmap_[level] == 0) continue;
        const int slot = std::countr_zero(bitmap_[level]);
        const std::int64_t start = slot_start_tick(level, slot);
        if (start < best_start) {
          best_start = start;
          best_level = level;
        }
      }
      const std::int64_t lb_ns =
          best_start == INT64_MAX ? INT64_MAX : best_start << kTickBits;
      lb_hint_ns_ = lb_ns;
      // The empty check matters even against threshold INT64_MAX.
      if (best_level < 0 || lb_ns > threshold_ns) return lb_ns;
      const int slot = std::countr_zero(bitmap_[best_level]);
      // Detach the whole list, then advance the clock: a level-0 slot is
      // one tick wide and fully consumed, so the clock moves past it; a
      // coarser slot moves the clock to its start and its entries re-file
      // relative to the new clock.
      std::uint32_t node = heads_[best_level][slot];
      heads_[best_level][slot] = kNil;
      bitmap_[best_level] &= ~(std::uint64_t{1} << slot);
      cur_tick_ = best_level == 0 ? best_start + 1 : best_start;
      while (node != kNil) {
        const std::uint32_t next = pool_[node].next;
        Node& n = pool_[node];
        n.linked = false;
        const std::int64_t when_tick = n.entry.when_ns >> kTickBits;
        if (when_tick > cur_tick_) {  // still ahead: re-file at a finer level
          const auto diff = static_cast<std::uint64_t>(when_tick) ^
                            static_cast<std::uint64_t>(cur_tick_);
          const int level = (63 - std::countl_zero(diff)) / kSlotBits;
          SPEAKUP_ASSERT(level < best_level);  // cascades strictly downward
          const auto s = static_cast<std::uint32_t>(
              (when_tick >> (level * kSlotBits)) & (kSlotsPerLevel - 1));
          n.level = static_cast<std::uint8_t>(level);
          n.slot = static_cast<std::uint8_t>(s);
          link(node, level, s);
        } else {  // due within the drained tick
          if (n.entry.when_ns < threshold_ns) threshold_ns = n.entry.when_ns;
          sink(n.entry);
          release_node(node);
          --size_;
        }
        node = next;
      }
    }
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

#if SPEAKUP_AUDIT_ENABLED
  /// Cross-check for EventLoop::audit(): `node` must be a linked node whose
  /// entry addresses slab slot `slab_slot` at generation `gen`.
  [[nodiscard]] bool audit_node(std::uint32_t node, std::uint32_t slab_slot,
                                std::uint32_t gen) const {
    return node < pool_.size() && pool_[node].linked &&
           pool_[node].entry.slot == slab_slot && pool_[node].entry.gen == gen;
  }

  /// Full structural audit (SPEAKUP_AUDIT builds only): occupancy bitmap vs
  /// slot lists, doubly-linked-list symmetry, per-node level/slot placement,
  /// deadline-ahead-of-clock, node count vs size_, hint soundness.
  void audit() const {
    std::size_t counted = 0;
    std::int64_t min_start_ns = INT64_MAX;
    for (int level = 0; level < kLevels; ++level) {
      for (int slot = 0; slot < kSlotsPerLevel; ++slot) {
        const bool bit = ((bitmap_[level] >> slot) & 1) != 0;
        const std::uint32_t head = heads_[level][slot];
        SPEAKUP_AUDIT_CHECK(bit == (head != kNil),
                            "TimerWheel: occupancy bitmap must agree with the slot lists");
        std::uint32_t prev = kNil;
        for (std::uint32_t n = head; n != kNil; n = pool_[n].next) {
          SPEAKUP_AUDIT_CHECK(n < pool_.size(), "TimerWheel: node handle out of range");
          const Node& nd = pool_[n];
          SPEAKUP_AUDIT_CHECK(nd.linked, "TimerWheel: listed node must be marked linked");
          SPEAKUP_AUDIT_CHECK(nd.level == level && nd.slot == slot,
                              "TimerWheel: node's recorded level/slot must match its list");
          SPEAKUP_AUDIT_CHECK(nd.prev == prev, "TimerWheel: prev/next links must be symmetric");
          // >= not >: insert() requires a strictly-future tick, but a
          // coarse-slot drain sets cur_tick_ to the slot's START, and a
          // level-0 slot holding exactly that tick may stay resident when
          // poll() returns early on its threshold.
          SPEAKUP_AUDIT_CHECK((nd.entry.when_ns >> kTickBits) >= cur_tick_,
                              "TimerWheel: resident deadline must not be behind the wheel clock");
          ++counted;
          SPEAKUP_AUDIT_CHECK(counted <= size_,
                              "TimerWheel: slot list cycle (more linked nodes than size_)");
          prev = n;
        }
        if (head != kNil) {
          const std::int64_t start_ns = slot_start_tick(level, slot) << kTickBits;
          if (start_ns < min_start_ns) min_start_ns = start_ns;
        }
      }
    }
    SPEAKUP_AUDIT_CHECK(counted == size_, "TimerWheel: size_ must count the linked nodes");
    SPEAKUP_AUDIT_CHECK(lb_hint_ns_ <= min_start_ns,
                        "TimerWheel: lower-bound hint must never exceed the true bound");
  }

  /// Deliberate corruption for tests/audit_test.cpp: raises an occupancy
  /// bit with no list behind it — the signature of a lost unlink.
  void corrupt_bitmap_for_test() { bitmap_[kLevels - 1] |= 1; }
#endif

 private:
  struct Node {
    Entry entry;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint8_t level = 0;
    std::uint8_t slot = 0;
    bool linked = false;
  };

  [[nodiscard]] std::int64_t slot_start_tick(int level, int slot) const {
    // Occupied slots are strictly ahead of the cursor in the current
    // rotation (see the level-selection comment above), so the slot's
    // start is the cursor's high bits with this level's group replaced.
    const int group_bits = (level + 1) * kSlotBits;
    const std::int64_t base =
        cur_tick_ & ~((std::int64_t{1} << group_bits) - 1);
    return base | (static_cast<std::int64_t>(slot) << (level * kSlotBits));
  }

  void link(std::uint32_t node, int level, std::uint32_t slot) {
    Node& n = pool_[node];
    n.prev = kNil;
    n.next = heads_[level][slot];
    if (n.next != kNil) pool_[n.next].prev = node;
    heads_[level][slot] = node;
    n.linked = true;
    bitmap_[level] |= std::uint64_t{1} << slot;
  }

  void unlink(std::uint32_t node) {
    Node& n = pool_[node];
    if (n.prev != kNil) {
      pool_[n.prev].next = n.next;
    } else {
      heads_[n.level][n.slot] = n.next;
      if (n.next == kNil) bitmap_[n.level] &= ~(std::uint64_t{1} << n.slot);
    }
    if (n.next != kNil) pool_[n.next].prev = n.prev;
    n.linked = false;
  }

  std::uint32_t acquire_node() {
    if (free_head_ != kNil) {
      const std::uint32_t node = free_head_;
      free_head_ = pool_[node].next;
      return node;
    }
    pool_.emplace_back();
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  void release_node(std::uint32_t node) {
    pool_[node].next = free_head_;
    free_head_ = node;
  }

  std::int64_t cur_tick_ = 0;  // everything before this tick has drained
  std::int64_t lb_hint_ns_ = INT64_MAX;
  std::size_t size_ = 0;
  std::uint64_t bitmap_[kLevels] = {};
  std::uint32_t heads_[kLevels][kSlotsPerLevel];  // kNil-filled in the ctor
  std::vector<Node> pool_;
  std::uint32_t free_head_ = kNil;
};

}  // namespace speakup::sim
