// Deterministic discrete-event loop.
//
// The loop owns a virtual clock and orders events by (fire-time, sequence).
// Ties on fire-time are broken by insertion order, which — with
// per-component RNG streams (util/rng.hpp) — makes whole experiments
// bit-reproducible.
//
// Hot-path design (this is the innermost loop of every experiment):
//   - Every pending event is one 64-byte slab record: its callback, its
//     (deadline, seq) key, its generation and its timer-wheel links.
//     Records are recycled through a free list; EventIds address them by
//     (slot, generation), so neither schedule nor cancel ever touches the
//     allocator once the slab and heap have reached their steady-state size.
//   - The callback type is sim::EventFn — 24 bytes of trivially copyable
//     capture plus an invoke pointer, refused at compile time when larger
//     (see event_fn.hpp). Filing and firing copy it; nothing relocates or
//     destroys it.
//   - Deadlines from the next wheel tick (~16 µs) out to ~4.9 h are filed
//     in a hierarchical timer wheel threaded through the records' prev/next
//     links: O(1) schedule, O(1) eager cancel — the protocol-timeout pattern
//     (every TCP ack re-arms the RTO, every request arms a 300 s timeout)
//     never touches the heap. Everything else (within the current tick, or
//     beyond the span) sits in a 4-ary implicit heap of 24-byte
//     (when, seq, slot, gen) keys — shallower and more cache-friendly than
//     the binary heap it replaced. The wheel never fires anything: due
//     slots are drained into the heap, where entries re-sort by their
//     original (time, seq) key, so firing order is bit-identical to a
//     single-heap loop by construction.
//   - Heap cancellation is O(1): bump the record's generation and free the
//     slot; the heap key remains as a tombstone. Tombstones are shed when
//     they reach the top, and the heap is compacted whenever tombstones
//     exceed half its size. Wheel cancellation unlinks eagerly and leaves
//     no tombstone at all.
//
// The wheel: level 0 has 4096 one-tick slots (2^kTickBits ns ≈ 16.4 µs per
// tick, so ~67 ms); levels 1–3 have 64 slots, each 64× as wide as a slot
// of the level below. The span is 2^30 ticks ≈ 4.9 h — past the 300 s
// default request timeout, so every protocol timer is wheel-resident, and
// most packet and pacing deadlines land directly in their final level-0
// slot instead of cascading down. A record's level is the bit-group of
// the highest bit in which its deadline tick differs from the wheel clock
// (`cur_tick_`), tokio-style. That keeps every occupied slot ahead of the
// clock in the current rotation, so each level's earliest slot is its first
// set occupancy bit. Levels are not ordered among themselves: a level-0
// drain that carries the clock into the next 4096-tick group leaves the
// coarser slot holding that group starting exactly at the clock, ahead of
// any level-0 slot filed afterwards. So the drain compares the first slot
// of each level, as the hierarchical wheel always has.
//
// speakup-lint: hot-path (allocation-free steady state; growth sites must
// be amortized and allowlisted in tools/lint_allowlist.txt)
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/event_fn.hpp"
#include "util/assert.hpp"
#include "util/audit.hpp"
#include "util/units.hpp"

namespace speakup::obs {
class Observer;  // observability hub (obs/observer.hpp); loop stores a raw ptr
}  // namespace speakup::obs

namespace speakup::sim {

class EventLoop;

/// Handle to a scheduled event; lets the owner cancel it. Default-constructed
/// handles are inert. Copies address the same underlying event (a generation
/// check makes stale copies harmless). Plain trivially-copyable value — no
/// reference counting. Must not be queried after its EventLoop is destroyed.
class EventId {
 public:
  EventId() = default;
  [[nodiscard]] bool valid() const { return loop_ != nullptr; }
  [[nodiscard]] inline bool pending() const;

 private:
  friend class EventLoop;
  EventId(EventLoop* loop, std::uint32_t slot, std::uint32_t gen)
      : loop_(loop), slot_(slot), gen_(gen) {}
  EventLoop* loop_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class EventLoop {
 public:
  // --- wheel geometry (public so tests can aim at its boundaries) ----------
  static constexpr int kTickBits = 14;    // 16.384 µs per tick
  static constexpr int kLevel0Bits = 12;  // 4096 one-tick slots
  static constexpr int kUpperBits = 6;    // 64 slots on each coarser level
  static constexpr int kLevels = 4;
  /// The wheel spans 2^kSpanBits ticks (2^30 ≈ 4.9 h).
  static constexpr int kSpanBits = kLevel0Bits + (kLevels - 1) * kUpperBits;

  EventLoop() {
    for (std::uint32_t& head : heads_) head = kNil;
  }
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// The representable horizon: the last instant an event can fire at.
  static constexpr SimTime max_time() { return SimTime::from_ns(INT64_MAX); }

  /// Schedules `fn` to run `delay` from now. Returns a cancellation handle.
  /// A delay that would overflow the clock saturates to max_time() (so
  /// Duration::infinite() and friends behave as "at the end of time", not
  /// as a wrapped-negative assertion failure).
  EventId schedule(Duration delay, EventFn fn) {
    return schedule_at(saturated_deadline(delay), std::move(fn));
  }

  /// Schedules `fn` at an absolute time. Rejects times in the past or past
  /// the representable horizon with a diagnostic (a negative `when` is
  /// almost always an overflowed Duration arithmetic upstream).
  EventId schedule_at(SimTime when, EventFn fn) {
    if (when < now_) {
      util::require(false, "EventLoop::schedule_at: time " + std::to_string(when.ns()) +
                               "ns is before now " + std::to_string(now_.ns()) +
                               "ns (negative times usually mean Duration overflow)");
    }
    return arm(when, next_seq_++, std::move(fn));
  }

  /// Reserves the next position in the global tie-break order without
  /// scheduling anything. A caller that *would have* scheduled an event here
  /// — but wants to coalesce many logical deadlines into one armed event
  /// (client::ClientPool batches one arrival deadline per cohort) — takes a
  /// seq now and later files it with schedule_keyed. Seq consumption is
  /// therefore identical to scheduling one event per deadline, so batching
  /// never changes the event order.
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedules `fn` at an absolute time under a previously reserved seq
  /// (reserve_seq). The entry sorts exactly where an event scheduled at
  /// reservation position would have sorted; no new seq is consumed. The
  /// same reserved key may be re-filed after a cancel (re-arming a cohort
  /// deadline): keys need only be unique among simultaneously filed entries,
  /// which reservation order guarantees.
  EventId schedule_keyed(SimTime when, std::uint64_t seq, EventFn fn) {
    util::require(when >= now_, "EventLoop::schedule_keyed: time is before now");
    SPEAKUP_ASSERT(seq < next_seq_);  // must come from reserve_seq
    return arm(when, seq, std::move(fn));
  }

  /// Moves a still-pending event to a new deadline, keeping its callback.
  /// Exactly equivalent to cancel(id) + schedule(delay, <same callback>) —
  /// same generation bump, same (time, seq) ordering key, same slot-reuse
  /// pattern — but skips re-copying the callback and the free-list
  /// round-trip, which is what makes per-ack RTO re-arming cheap.
  /// Precondition: the event is pending (restart-style callers check).
  /// Invalidates `id` and every copy; returns the replacement handle.
  EventId reschedule(EventId id, Duration delay) {
    SPEAKUP_ASSERT(id.loop_ == this && slot_pending(id.slot_, id.gen_));
    const SimTime when = saturated_deadline(delay);
    Record& rec = slab_[id.slot_];
    ++rec.gen;  // old handles (and any old heap key) are now stale
    const bool tombstoned = rec.place == kInHeap;
    if (tombstoned) {
      ++tombstones_;
    } else {
      wheel_unlink(id.slot_);
    }
    file_entry(when, next_seq_++, id.slot_);
    // Compact only after the record is re-filed: maybe_compact runs a full
    // audit in SPEAKUP_AUDIT builds, and between the gen bump and file_entry
    // the armed record is resident in neither store.
    if (tombstoned) maybe_compact();
    return EventId{this, id.slot_, rec.gen};
  }

  /// Cancels a pending event; no-op if it already fired or was cancelled.
  /// O(1) either way: a wheel-resident event is unlinked eagerly; a
  /// heap-resident one leaves a tombstone behind (see maybe_compact).
  void cancel(EventId& id) {
    if (id.loop_ == this && slot_pending(id.slot_, id.gen_)) {
      Record& rec = slab_[id.slot_];
      const bool tombstoned = rec.place == kInHeap;
      if (!tombstoned) wheel_unlink(id.slot_);
      ++rec.gen;
      --pending_;
      release_slot(id.slot_);
      if (tombstoned) {
        ++tombstones_;
        maybe_compact();
      }
    }
    id.loop_ = nullptr;
  }

  /// Runs events until the queue empties or the clock passes `end`; the
  /// clock then reads `end` (time passes even when nothing happens).
  /// Events scheduled exactly at `end` do run.
  void run_until(SimTime end) {
    while (step(end.ns())) {
    }
    if (now_ < end) now_ = end;
  }

  /// Runs until no events remain, leaving the clock at the last event (use
  /// with care: self-rescheduling processes make this unbounded). Drains
  /// genuinely everything — there is no silent internal horizon.
  void run() {
    while (step(max_time().ns())) {
    }
  }

  /// Number of scheduled-but-not-yet-fired events.
  [[nodiscard]] std::size_t pending_events() const { return pending_; }

  /// Total events executed so far (for performance reporting).
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Heap entries currently held, including tombstones (introspection for
  /// tests of the compaction policy). Wheel-resident events are not
  /// included — see wheel_size().
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }

  /// Events currently filed in the timer wheel (introspection for tests;
  /// cancelled wheel events are unlinked eagerly, so this counts live
  /// events only).
  [[nodiscard]] std::size_t wheel_size() const { return wheel_size_; }

  // --- observability ---------------------------------------------------------
  // The loop is the one object every simulated component can already reach,
  // so it carries the (untyped) pointer to the run's obs::Observer. Probe
  // sites read it per call: `if (auto* o = loop().observer()) o->on_x(...)`.
  // With no observer attached the sole cost is a pointer load.

  void set_observer(obs::Observer* o) { observer_ = o; }
  [[nodiscard]] obs::Observer* observer() const { return observer_; }

  /// Interval-sampling hook: called from step() when the clock reaches
  /// `next_sample_ns`; receives the context and the current time and
  /// returns the next deadline. Deliberately NOT a scheduled event — the
  /// hook adds nothing to the queues, so `executed_events()` (and with it
  /// every scenario fingerprint) is identical whether sampling is on or
  /// off. Disabled cost: one compare against INT64_MAX per step.
  using SampleHook = std::int64_t (*)(void* ctx, std::int64_t now_ns);

  void set_sample_hook(SampleHook hook, void* ctx, std::int64_t first_deadline_ns) {
    sample_hook_ = hook;
    sample_ctx_ = ctx;
    next_sample_ns_ = first_deadline_ns;
  }

  void clear_sample_hook() {
    sample_hook_ = nullptr;
    sample_ctx_ = nullptr;
    next_sample_ns_ = INT64_MAX;
  }

#if SPEAKUP_AUDIT_ENABLED
  /// Full structural audit (SPEAKUP_AUDIT builds only): 4-ary heap property,
  /// tombstone accounting, slab/free-list consistency, and the wheel's slot
  /// lists walked through the slab links. Runs automatically every
  /// kAuditPeriod fired events and after each compaction; tests may call it
  /// at any quiescent point (not from inside a callback — a firing event's
  /// slot is released before its callback runs).
  void audit() const {
    // 4-ary heap property over the (when, seq) total order.
    for (std::size_t i = 1; i < heap_.size(); ++i) {
      SPEAKUP_AUDIT_CHECK(!earlier(heap_[i], heap_[(i - 1) >> 2]),
                          "EventLoop: 4-ary heap property violated");
    }
    // Tombstone accounting; a live heap key's record says it is in the heap.
    std::size_t live_heap = 0;
    for (const HeapEntry& e : heap_) {
      SPEAKUP_AUDIT_CHECK(e.slot < slab_.size(), "EventLoop: heap entry slot out of range");
      if (live(e)) {
        ++live_heap;
        SPEAKUP_AUDIT_CHECK(slab_[e.slot].place == kInHeap,
                            "EventLoop: live heap entry's record must be heap-resident");
      }
    }
    SPEAKUP_AUDIT_CHECK(heap_.size() - live_heap == tombstones_,
                        "EventLoop: tombstones_ must count the dead heap entries");
    // Slab: armed records are exactly the pending events, split between the
    // two stores.
    std::size_t armed = 0;
    std::size_t in_heap = 0;
    std::size_t in_wheel = 0;
    for (const Record& rec : slab_) {
      SPEAKUP_AUDIT_CHECK(rec.place <= kFree, "EventLoop: record place out of range");
      armed += rec.place != kFree;
      in_heap += rec.place == kInHeap;
      in_wheel += rec.place < kLevels;
    }
    SPEAKUP_AUDIT_CHECK(armed == pending_, "EventLoop: pending_ must count the armed records");
    SPEAKUP_AUDIT_CHECK(in_heap == live_heap,
                        "EventLoop: every heap-resident record has exactly one live heap key");
    SPEAKUP_AUDIT_CHECK(in_wheel == wheel_size_,
                        "EventLoop: wheel_size_ must count the wheel-resident records");
    // Free list: in range, unarmed, acyclic, and together with the armed
    // records it covers the whole slab.
    std::size_t free_len = 0;
    for (std::uint32_t s = free_head_; s != kNil; s = slab_[s].next) {
      SPEAKUP_AUDIT_CHECK(s < slab_.size(), "EventLoop: free-list slot out of range");
      SPEAKUP_AUDIT_CHECK(slab_[s].place == kFree, "EventLoop: free-list slot must be unarmed");
      ++free_len;
      SPEAKUP_AUDIT_CHECK(free_len <= slab_.size(), "EventLoop: free-list cycle");
    }
    SPEAKUP_AUDIT_CHECK(armed + free_len == slab_.size(),
                        "EventLoop: every slab slot is either armed or on the free list");
    // Wheel: summary bits vs bitmap words, bitmap bits vs slot lists, and
    // every listed record linked symmetrically, placed where its level and
    // slot say, and not behind the wheel clock.
    for (std::uint32_t w = 0; w < kLevel0Words; ++w) {
      SPEAKUP_AUDIT_CHECK(((summary_ >> w) & 1) == (bits_[w] != 0),
                          "EventLoop: wheel summary word must agree with the level-0 bitmap");
    }
    std::size_t linked = 0;
    std::int64_t min_start_ns = INT64_MAX;
    for (std::uint32_t h = 0; h < kHeads; ++h) {
      const bool bit = ((bits_[h >> 6] >> (h & 63)) & 1) != 0;
      SPEAKUP_AUDIT_CHECK(bit == (heads_[h] != kNil),
                          "EventLoop: wheel bitmap must agree with the slot lists");
      std::uint32_t prev = kNil;
      for (std::uint32_t s = heads_[h]; s != kNil; s = slab_[s].next) {
        SPEAKUP_AUDIT_CHECK(s < slab_.size(), "EventLoop: wheel link out of range");
        const Record& rec = slab_[s];
        SPEAKUP_AUDIT_CHECK(rec.place == level_of(h) && rec.slot == h,
                            "EventLoop: record's level/slot must match its wheel list");
        SPEAKUP_AUDIT_CHECK(rec.prev == prev, "EventLoop: wheel prev/next links must be symmetric");
        // >= not >: filing requires a strictly-future tick, but a level-0
        // drain moves the clock one past the drained tick, onto a tick
        // whose slot (or, after a carry into the next group, whose coarser
        // slot) may still hold records.
        SPEAKUP_AUDIT_CHECK((rec.when_ns >> kTickBits) >= cur_tick_,
                            "EventLoop: wheel deadline must not be behind the wheel clock");
        ++linked;
        SPEAKUP_AUDIT_CHECK(linked <= wheel_size_,
                            "EventLoop: wheel list cycle (more linked records than wheel_size_)");
        prev = s;
      }
      if (heads_[h] != kNil) {
        const std::int64_t start_ns = slot_start_tick(h) << kTickBits;
        if (start_ns < min_start_ns) min_start_ns = start_ns;
      }
    }
    SPEAKUP_AUDIT_CHECK(linked == wheel_size_,
                        "EventLoop: wheel_size_ must count the linked records");
    SPEAKUP_AUDIT_CHECK(lb_hint_ns_ <= min_start_ns,
                        "EventLoop: wheel lower-bound hint must never exceed the true bound");
  }

  /// Deliberate corruption hooks for tests/audit_test.cpp: prove the audit
  /// actually detects faults, not just that clean runs stay quiet.
  void corrupt_heap_for_test() {
    if (!heap_.empty()) heap_.back().when_ns = -1;
  }
  /// Raises an occupancy bit with no list behind it — the signature of a
  /// lost unlink.
  void corrupt_wheel_for_test() { bits_[kWords - 1] |= 1; }
#endif

 private:
  friend class EventId;

  static constexpr std::uint32_t kNil = UINT32_MAX;
  /// Below this size the heap is left alone: compacting a few dozen entries
  /// buys nothing and would thrash on small workloads.
  static constexpr std::size_t kCompactMin = 64;

  static constexpr std::uint32_t kLevel0Slots = 1u << kLevel0Bits;
  static constexpr std::uint32_t kUpperSlots = 1u << kUpperBits;
  /// Slot lists, level 0 first: head index h < 4096 is level-0 tick h mod
  /// 4096; the rest are levels 1–3, 64 apiece. Occupancy bit h lives in
  /// bits_[h / 64], one word per upper level; bit w of summary_ says
  /// whether level-0 word bits_[w] is non-zero.
  static constexpr std::uint32_t kHeads = kLevel0Slots + (kLevels - 1) * kUpperSlots;
  static constexpr std::uint32_t kWords = kHeads / 64;
  static constexpr std::uint32_t kLevel0Words = kLevel0Slots / 64;
  static_assert(kLevel0Words == 64 && kUpperSlots == 64,
                "one summary word, one bitmap word per upper level");

  /// Record::place: a wheel level (0..kLevels-1), or one of these.
  static constexpr std::uint8_t kInHeap = kLevels;
  static constexpr std::uint8_t kFree = kLevels + 1;

  /// The one per-event store. `next` doubles as the free-list link.
  struct alignas(64) Record {
    EventFn fn;
    std::int64_t when_ns = 0;
    std::uint64_t seq = 0;
    std::uint32_t gen = 0;
    std::uint32_t prev = kNil;  // wheel slot list
    std::uint32_t next = kNil;
    std::uint16_t slot = 0;      // wheel head index while place < kLevels
    std::uint8_t place = kFree;  // wheel level, kInHeap or kFree
    std::uint8_t spare = 0;      // reserved for a per-event layer tag
  };
  static_assert(sizeof(Record) == 64, "one cache line per pending event");

  struct HeapEntry {
    std::int64_t when_ns;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// The total order (when, seq): unique per entry, so every heap shape —
  /// and the compaction rebuild — pops in exactly the same sequence.
  /// Written with non-short-circuit operators so the comparison compiles
  /// to straight-line code (cmov, no data-dependent branches): the min-of-
  /// four-children scan in the sift loops is mispredict-bound otherwise.
  [[nodiscard]] static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    return (a.when_ns < b.when_ns) |
           ((a.when_ns == b.when_ns) & (a.seq < b.seq));
  }

  // --- 4-ary implicit heap over heap_ --------------------------------------
  // Shallower than a binary heap (log4 vs log2 levels) and each node's four
  // children share a cache line, so sift paths touch roughly half the lines.

  void heap_push(const HeapEntry& e) {
    heap_.push_back(e);
    place_up(heap_.size() - 1, e);
  }

  /// Pop uses the classic hole-descent: walk the hole from the root to a
  /// leaf always promoting the earliest child (no compare against the
  /// displaced element on the way down), then bubble the displaced back()
  /// element up from the leaf. The displaced element came from leaf depth,
  /// so the bubble-up almost always stops immediately — this is the same
  /// strategy libstdc++'s __adjust_heap uses, adapted to four children.
  void heap_pop_front() {
    const HeapEntry e = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = (i << 2) + 1;
      if (first >= n) break;
      const std::size_t last = first + 4 < n ? first + 4 : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    place_up(i, e);
  }

  /// Moves `e` (destined for position i) up toward the root to its final
  /// position. Precondition: heap_[i] is a hole (or e itself).
  void place_up(std::size_t i, const HeapEntry& e) {
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!earlier(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  /// Standard Floyd heapify over the 4-ary layout (used after compaction):
  /// sift each internal node down, deepest first.
  void sift_down(std::size_t i) {
    const HeapEntry e = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = (i << 2) + 1;
      if (first >= n) break;
      const std::size_t last = first + 4 < n ? first + 4 : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  void heap_rebuild() {
    for (std::size_t i = heap_.size() / 4 + 1; i-- > 0;) sift_down(i);
  }

  /// now + delay, saturated to max_time() on overflow.
  [[nodiscard]] SimTime saturated_deadline(Duration delay) const {
    SPEAKUP_ASSERT(delay >= Duration::zero());
    return now_ + delay;  // SimTime addition saturates at max_time()
  }

  EventId arm(SimTime when, std::uint64_t seq, EventFn&& fn) {
    const std::uint32_t slot = acquire_slot();
    Record& rec = slab_[slot];
    rec.fn = std::move(fn);
    file_entry(when, seq, slot);
    ++pending_;
    return EventId{this, slot, rec.gen};
  }

  /// Files `slot` under (when, seq): into the wheel when the deadline lies
  /// within its span, else into the heap. The single place the store-choice
  /// policy lives. Store choice cannot affect firing order — the wheel only
  /// ever drains into the heap, where entries re-sort by (when, seq).
  void file_entry(SimTime when, std::uint64_t seq, std::uint32_t slot) {
    Record& rec = slab_[slot];
    rec.when_ns = when.ns();
    rec.seq = seq;
    const std::int64_t when_tick = rec.when_ns >> kTickBits;
    const std::uint32_t head = wheel_head(when_tick);
    if (head == kNil) {
      rec.place = kInHeap;
      heap_push(HeapEntry{rec.when_ns, seq, slot, rec.gen});
      return;
    }
    wheel_link(slot, head);
    ++wheel_size_;
    // The slot's start: the deadline tick with the bits below its slot cleared.
    const int shift = slot_shift(head);
    const std::int64_t start_ns = (when_tick >> shift << shift) << kTickBits;
    if (start_ns < lb_hint_ns_) lb_hint_ns_ = start_ns;
  }

  [[nodiscard]] bool slot_pending(std::uint32_t slot, std::uint32_t gen) const {
    return slot < slab_.size() && slab_[slot].gen == gen && slab_[slot].place != kFree;
  }
  [[nodiscard]] bool live(const HeapEntry& e) const {
    return slab_[e.slot].gen == e.gen && slab_[e.slot].place != kFree;
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNil) {
      const std::uint32_t slot = free_head_;
      free_head_ = slab_[slot].next;
      return slot;
    }
    slab_.emplace_back();
    return static_cast<std::uint32_t>(slab_.size() - 1);
  }

  void release_slot(std::uint32_t slot) {
    slab_[slot].place = kFree;
    slab_[slot].next = free_head_;
    free_head_ = slot;
  }

  // --- timer wheel over the records' links ----------------------------------

  static constexpr std::uint8_t level_of(std::uint32_t head) {
    return head < kLevel0Slots
               ? 0
               : static_cast<std::uint8_t>(1 + ((head - kLevel0Slots) >> kUpperBits));
  }
  /// Bit offset, within a tick, of the slot index of list `head`'s level.
  static constexpr int slot_shift(std::uint32_t head) {
    return head < kLevel0Slots
               ? 0
               : kLevel0Bits + static_cast<int>((head - kLevel0Slots) >> kUpperBits) * kUpperBits;
  }

  /// The slot list a deadline tick files under, or kNil when it belongs in
  /// the heap: not strictly ahead of the wheel clock, or beyond the span.
  [[nodiscard]] std::uint32_t wheel_head(std::int64_t when_tick) const {
    if (when_tick <= cur_tick_) return kNil;
    const int hb = 63 - std::countl_zero(static_cast<std::uint64_t>(when_tick) ^
                                         static_cast<std::uint64_t>(cur_tick_));
    if (hb < kLevel0Bits) return static_cast<std::uint32_t>(when_tick & (kLevel0Slots - 1));
    if (hb >= kSpanBits) return kNil;
    const auto upper = static_cast<std::uint32_t>((hb - kLevel0Bits) / kUpperBits);  // level - 1
    const int shift = kLevel0Bits + static_cast<int>(upper) * kUpperBits;
    return kLevel0Slots + upper * kUpperSlots +
           static_cast<std::uint32_t>((when_tick >> shift) & (kUpperSlots - 1));
  }

  /// Links `slot` at the front of slot list `head`.
  void wheel_link(std::uint32_t slot, std::uint32_t head) {
    Record& rec = slab_[slot];
    rec.prev = kNil;
    rec.next = heads_[head];
    if (rec.next != kNil) slab_[rec.next].prev = slot;
    heads_[head] = slot;
    rec.slot = static_cast<std::uint16_t>(head);
    rec.place = level_of(head);
    const std::uint32_t w = head >> 6;
    bits_[w] |= std::uint64_t{1} << (head & 63);
    if (w < kLevel0Words) summary_ |= std::uint64_t{1} << w;
  }

  void clear_head_bit(std::uint32_t head) {
    const std::uint32_t w = head >> 6;
    bits_[w] &= ~(std::uint64_t{1} << (head & 63));
    if (bits_[w] == 0 && w < kLevel0Words) summary_ &= ~(std::uint64_t{1} << w);
  }

  /// O(1) unlink of a wheel-resident record (cancel / reschedule).
  void wheel_unlink(std::uint32_t slot) {
    const Record& rec = slab_[slot];
    SPEAKUP_ASSERT(rec.place < kLevels);
    if (rec.prev != kNil) {
      slab_[rec.prev].next = rec.next;
    } else {
      heads_[rec.slot] = rec.next;
      if (rec.next == kNil) clear_head_bit(rec.slot);
    }
    if (rec.next != kNil) slab_[rec.next].prev = rec.prev;
    if (--wheel_size_ == 0) lb_hint_ns_ = INT64_MAX;
  }

  /// First tick covered by slot list `head`. Occupied slots lie ahead of
  /// the clock in the current rotation, so the start is the clock's high
  /// bits with this level's group replaced by the slot index.
  [[nodiscard]] std::int64_t slot_start_tick(std::uint32_t head) const {
    const int shift = slot_shift(head);
    const int group_bits = shift + (head < kLevel0Slots ? kLevel0Bits : kUpperBits);
    const std::uint32_t index = head < kLevel0Slots ? head : head & (kUpperSlots - 1);
    return (cur_tick_ & ~((std::int64_t{1} << group_bits) - 1)) |
           (static_cast<std::int64_t>(index) << shift);
  }

  /// Moves every wheel slot that could precede the heap's next live entry
  /// (or `end_ns`) into the heap, where the entries re-sort by (when, seq).
  /// After this returns, the heap front — if due — is globally earliest.
  ///
  /// Draining a slot: records still ahead of the wheel clock cascade into
  /// finer levels, and records due within the current tick become heap
  /// keys. Records therefore reach the heap at most one tick (~16 µs)
  /// before they fire, which keeps the heap holding only the imminent
  /// frontier. The threshold tightens to the earliest drained record as
  /// the drain proceeds — that record IS the new frontier, and stopping
  /// there keeps a momentarily-empty heap from swallowing the whole wheel.
  void promote_due_wheel_slots(std::int64_t end_ns) {
    while (tombstones_ != 0 && !heap_.empty() && !live(heap_.front())) {  // shed tombstones
      heap_pop_front();
      --tombstones_;
    }
    if (wheel_size_ == 0) return;
    const std::int64_t heap_top = heap_.empty() ? INT64_MAX : heap_.front().when_ns;
    std::int64_t threshold = heap_top < end_ns ? heap_top : end_ns;
    // Hint first: a cheap field read rules out a drain on almost every
    // step. The hint is never too high, so trusting it cannot fire a
    // heap event ahead of an earlier wheel entry.
    if (lb_hint_ns_ > threshold) return;
    for (;;) {
      // The earliest occupied slot: each level's first set bit, then the
      // earliest of those (see the header).
      std::uint32_t head = kNil;
      std::int64_t start = INT64_MAX;
      if (summary_ != 0) {
        const auto w = static_cast<std::uint32_t>(std::countr_zero(summary_));
        head = (w << 6) | static_cast<std::uint32_t>(std::countr_zero(bits_[w]));
        start = slot_start_tick(head);
      }
      for (std::uint32_t w = kLevel0Words; w < kWords; ++w) {  // one word per upper level
        if (bits_[w] == 0) continue;
        const std::uint32_t h = (w << 6) | static_cast<std::uint32_t>(std::countr_zero(bits_[w]));
        const std::int64_t s = slot_start_tick(h);
        if (s < start) {
          start = s;
          head = h;
        }
      }
      if (head == kNil) {
        lb_hint_ns_ = INT64_MAX;
        return;
      }
      lb_hint_ns_ = start << kTickBits;
      if (lb_hint_ns_ > threshold) return;
      // Detach the whole list, then advance the clock: a level-0 slot is
      // one tick wide and fully consumed, so the clock moves past it; a
      // coarser slot moves the clock to its start and its records re-file
      // relative to the new clock.
      std::uint32_t slot = heads_[head];
      heads_[head] = kNil;
      clear_head_bit(head);
      cur_tick_ = head < kLevel0Slots ? start + 1 : start;
      while (slot != kNil) {
        Record& rec = slab_[slot];
        const std::uint32_t next = rec.next;
        const std::uint32_t finer = wheel_head(rec.when_ns >> kTickBits);
        if (finer != kNil) {  // still ahead: re-file at a finer level
          SPEAKUP_ASSERT(level_of(finer) < level_of(head));  // cascades strictly downward
          wheel_link(slot, finer);
        } else {  // due within the drained tick
          if (rec.when_ns < threshold) threshold = rec.when_ns;
          rec.place = kInHeap;
          --wheel_size_;
          heap_push(HeapEntry{rec.when_ns, rec.seq, slot, rec.gen});
        }
        slot = next;
      }
      // A level-0 slot sinks every record it holds, so the threshold is now
      // inside the drained tick and no remaining slot (all start at or past
      // the clock) can be due: skip the scan that would only say so.
      if (head < kLevel0Slots) {
        lb_hint_ns_ = cur_tick_ << kTickBits;
        return;
      }
    }
  }

  /// Fires the next due event (<= end_ns); returns false if none.
  bool step(std::int64_t end_ns) {
    promote_due_wheel_slots(end_ns);
    if (heap_.empty() || heap_.front().when_ns > end_ns) return false;
    const HeapEntry top = heap_.front();
    heap_pop_front();
    Record& rec = slab_[top.slot];
    SPEAKUP_ASSERT(top.when_ns >= now_.ns());
    now_ = SimTime::from_ns(top.when_ns);
    // Retire the record before invoking: the callback may schedule (reusing
    // this very slot, or growing the slab), cancel, or destroy the object
    // that armed it.
    EventFn fn = std::move(rec.fn);
    ++rec.gen;
    release_slot(top.slot);
    --pending_;
    ++executed_;
    // Sample before firing: this is the first event at or past the
    // boundary, so the registry sees state exactly as of the boundary.
    // The null check lives inside the branch so the hot path stays one
    // compare; with no hook the INT64_MAX sentinel is still reachable by
    // an event scheduled at max_time() itself.
    if (top.when_ns >= next_sample_ns_ && sample_hook_ != nullptr) {
      next_sample_ns_ = sample_hook_(sample_ctx_, top.when_ns);
    }
    fn();
    SPEAKUP_AUDIT_ONLY(if (--audit_countdown_ == 0) {
      audit_countdown_ = kAuditPeriod;
      audit();
    })
    return true;
  }

  /// Rebuilds the heap without tombstones once they outnumber live entries.
  /// The comparator is a total order over unique (time, seq) pairs, so the
  /// rebuilt heap pops in exactly the same order as the lazy one.
  void maybe_compact() {
    if (heap_.size() < kCompactMin || tombstones_ * 2 <= heap_.size()) return;
    std::size_t kept = 0;
    for (const HeapEntry& e : heap_) {
      if (live(e)) heap_[kept++] = e;
    }
    heap_.resize(kept);
    heap_rebuild();
    tombstones_ = 0;
    SPEAKUP_AUDIT_ONLY(audit();)
  }

  SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;
  std::size_t tombstones_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<Record> slab_;
  std::uint32_t free_head_ = kNil;
  // Wheel state. cur_tick_: every tick before it has drained.
  std::int64_t cur_tick_ = 0;
  std::int64_t lb_hint_ns_ = INT64_MAX;  // never above the earliest wheel slot's start
  std::size_t wheel_size_ = 0;
  std::uint64_t summary_ = 0;
  std::uint64_t bits_[kWords] = {};
  std::uint32_t heads_[kHeads];  // kNil-filled in the constructor
  obs::Observer* observer_ = nullptr;
  SampleHook sample_hook_ = nullptr;
  void* sample_ctx_ = nullptr;
  std::int64_t next_sample_ns_ = INT64_MAX;
#if SPEAKUP_AUDIT_ENABLED
  /// Amortization: a full audit is O(slab + heap + wheel), so it runs once
  /// per this many fired events (plus after every compaction).
  static constexpr std::uint64_t kAuditPeriod = 1024;
  std::uint64_t audit_countdown_ = kAuditPeriod;
#endif
};

inline bool EventId::pending() const {
  return loop_ != nullptr && loop_->slot_pending(slot_, gen_);
}

}  // namespace speakup::sim
