// Deterministic discrete-event loop.
//
// The loop owns a virtual clock and orders events by (fire-time, sequence).
// Ties on fire-time are broken by insertion order, which — with
// per-component RNG streams (util/rng.hpp) — makes whole experiments
// bit-reproducible.
//
// Hot-path design (this is the innermost loop of every experiment):
//   - Callbacks live in a slab (vector) of pooled records recycled through
//     a free list; EventIds address records by (slot, generation), so
//     neither schedule nor cancel ever touches the allocator once the slab
//     and queues have reached their steady-state size.
//   - The callback type is sim::EventFn — a 64-byte in-place closure that
//     refuses oversized captures at compile time (see event_fn.hpp).
//   - Pending events live in one of two stores. Deadlines from the next
//     wheel tick (~16 µs) out to ~4.9 h sit in a hierarchical timer wheel
//     (timer_wheel.hpp): O(1) schedule, O(1) eager cancel — the protocol-
//     timeout pattern (every TCP ack re-arms the RTO, every request arms a
//     300 s timeout) never touches the heap. Everything else (within the
//     current tick, or beyond the span) sits in a 4-ary implicit heap of
//     24-byte POD entries — shallower and more cache-friendly than the
//     binary heap it replaced. The wheel never fires
//     anything: due slots are drained into the heap, where entries re-sort
//     by their original (time, seq) key, so firing order is bit-identical
//     to a single-heap loop by construction.
//   - Heap cancellation is O(1): bump the record's generation and free the
//     slot; the heap entry remains as a tombstone. Tombstones are shed when
//     they reach the top, and the heap is compacted whenever tombstones
//     exceed half its size. Wheel cancellation unlinks eagerly and leaves
//     no tombstone at all.
//
// speakup-lint: hot-path (allocation-free steady state; growth sites must
// be amortized and allowlisted in tools/lint_allowlist.txt)
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/timer_wheel.hpp"
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
  EventLoop() = default;
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
    const std::uint32_t slot = acquire_slot();
    Record& rec = slab_[slot];
    rec.fn = std::move(fn);
    rec.armed = true;
    file_entry(when, slot);
    ++pending_;
    return EventId{this, slot, rec.gen};
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
    const std::uint32_t slot = acquire_slot();
    Record& rec = slab_[slot];
    rec.fn = std::move(fn);
    rec.armed = true;
    file_entry(when, seq, slot);
    ++pending_;
    return EventId{this, slot, rec.gen};
  }

  /// Moves a still-pending event to a new deadline, keeping its callback.
  /// Exactly equivalent to cancel(id) + schedule(delay, <same callback>) —
  /// same generation bump, same (time, seq) ordering key, same slot-reuse
  /// pattern — but skips destroying and re-creating the callback and the
  /// free-list round-trip, which is what makes per-ack RTO re-arming cheap.
  /// Precondition: the event is pending (restart-style callers check).
  /// Invalidates `id` and every copy; returns the replacement handle.
  EventId reschedule(EventId id, Duration delay) {
    SPEAKUP_ASSERT(id.loop_ == this && slot_pending(id.slot_, id.gen_));
    const SimTime when = saturated_deadline(delay);
    Record& rec = slab_[id.slot_];
    ++rec.gen;  // old handles (and any old heap entry) are now stale
    bool tombstoned = false;
    if (rec.wheel_node != TimerWheel::kNil) {
      wheel_.remove(rec.wheel_node);
    } else {
      ++tombstones_;
      tombstoned = true;
    }
    file_entry(when, id.slot_);
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
      rec.armed = false;
      rec.fn.reset();  // release captured state promptly
      ++rec.gen;
      --pending_;
      if (rec.wheel_node != TimerWheel::kNil) {
        wheel_.remove(rec.wheel_node);
        rec.wheel_node = TimerWheel::kNil;
        release_slot(id.slot_);
      } else {
        release_slot(id.slot_);
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
  [[nodiscard]] std::size_t wheel_size() const { return wheel_.size(); }

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
  /// tombstone accounting, slab/free-list consistency, heap-vs-wheel
  /// residency cross-checks, and the wheel's own audit. Runs automatically
  /// every kAuditPeriod fired events and after each compaction; tests may
  /// call it at any quiescent point (not from inside a callback — a firing
  /// event's slot is released before its callback runs).
  void audit() const {
    // 4-ary heap property over the (when, seq) total order.
    for (std::size_t i = 1; i < heap_.size(); ++i) {
      SPEAKUP_AUDIT_CHECK(!earlier(heap_[i], heap_[(i - 1) >> 2]),
                          "EventLoop: 4-ary heap property violated");
    }
    // Tombstone accounting, and no event resident in both stores.
    std::size_t live_heap = 0;
    for (const HeapEntry& e : heap_) {
      SPEAKUP_AUDIT_CHECK(e.slot < slab_.size(), "EventLoop: heap entry slot out of range");
      if (live(e)) {
        ++live_heap;
        SPEAKUP_AUDIT_CHECK(slab_[e.slot].wheel_node == TimerWheel::kNil,
                            "EventLoop: live heap entry must not also be wheel-resident");
      }
    }
    SPEAKUP_AUDIT_CHECK(heap_.size() - live_heap == tombstones_,
                        "EventLoop: tombstones_ must count the dead heap entries");
    // Slab: armed records are exactly the pending events, and an armed
    // record's wheel handle (when present) points to a linked node filed
    // under this (slot, generation).
    std::size_t armed = 0;
    for (std::uint32_t s = 0; s < slab_.size(); ++s) {
      const Record& rec = slab_[s];
      if (!rec.armed) continue;
      ++armed;
      if (rec.wheel_node != TimerWheel::kNil) {
        SPEAKUP_AUDIT_CHECK(wheel_.audit_node(rec.wheel_node, s, rec.gen),
                            "EventLoop: armed record's wheel node must link back to it");
      }
    }
    SPEAKUP_AUDIT_CHECK(armed == pending_, "EventLoop: pending_ must count the armed records");
    SPEAKUP_AUDIT_CHECK(live_heap + wheel_.size() == pending_,
                        "EventLoop: every pending event lives in exactly one store");
    // Free list: in range, unarmed, acyclic, and together with the armed
    // records it covers the whole slab.
    std::size_t free_len = 0;
    for (std::uint32_t s = free_head_; s != kNilSlot; s = slab_[s].next_free) {
      SPEAKUP_AUDIT_CHECK(s < slab_.size(), "EventLoop: free-list slot out of range");
      SPEAKUP_AUDIT_CHECK(!slab_[s].armed, "EventLoop: free-list slot must be unarmed");
      ++free_len;
      SPEAKUP_AUDIT_CHECK(free_len <= slab_.size(), "EventLoop: free-list cycle");
    }
    SPEAKUP_AUDIT_CHECK(armed + free_len == slab_.size(),
                        "EventLoop: every slab slot is either armed or on the free list");
    wheel_.audit();
  }

  /// Deliberate corruption hooks for tests/audit_test.cpp: prove the audit
  /// actually detects faults, not just that clean runs stay quiet.
  void corrupt_heap_for_test() {
    if (!heap_.empty()) heap_.back().when_ns = -1;
  }
  void corrupt_wheel_for_test() { wheel_.corrupt_bitmap_for_test(); }
#endif

 private:
  friend class EventId;

  static constexpr std::uint32_t kNilSlot = UINT32_MAX;
  /// Below this size the heap is left alone: compacting a few dozen entries
  /// buys nothing and would thrash on small workloads.
  static constexpr std::size_t kCompactMin = 64;

  struct Record {
    EventFn fn;
    std::uint32_t gen = 0;
    bool armed = false;
    std::uint32_t next_free = kNilSlot;
    /// Wheel node handle while the event waits in the wheel; kNil once it
    /// is heap-resident (within the current tick, beyond the span, or
    /// drained).
    std::uint32_t wheel_node = TimerWheel::kNil;
  };

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

  /// Files `slot`'s (deadline, fresh seq) key into the wheel when the
  /// deadline qualifies, else the heap. The single place the store-choice
  /// policy lives — schedule_at and reschedule must not diverge.
  void file_entry(SimTime when, std::uint32_t slot) {
    file_entry(when, next_seq_++, slot);
  }

  /// Keyed variant: files under a caller-supplied (reserved) seq. Store
  /// choice cannot affect firing order — the wheel only ever drains into
  /// the heap, where entries re-sort by (when, seq).
  void file_entry(SimTime when, std::uint64_t seq, std::uint32_t slot) {
    Record& rec = slab_[slot];
    const std::uint32_t node =
        wheel_.insert(TimerWheel::Entry{when.ns(), seq, slot, rec.gen});
    rec.wheel_node = node;
    if (node == TimerWheel::kNil) {
      heap_push(HeapEntry{when.ns(), seq, slot, rec.gen});
    }
  }

  [[nodiscard]] bool slot_pending(std::uint32_t slot, std::uint32_t gen) const {
    return slot < slab_.size() && slab_[slot].gen == gen && slab_[slot].armed;
  }
  [[nodiscard]] bool live(const HeapEntry& e) const {
    return slab_[e.slot].gen == e.gen && slab_[e.slot].armed;
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNilSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slab_[slot].next_free;
      return slot;
    }
    slab_.emplace_back();
    return static_cast<std::uint32_t>(slab_.size() - 1);
  }

  void release_slot(std::uint32_t slot) {
    slab_[slot].next_free = free_head_;
    free_head_ = slot;
  }

  /// Moves every wheel slot that could precede the heap's next live entry
  /// (or `end_ns`) into the heap, where the entries re-sort by (when, seq).
  /// After this returns, the heap front — if due — is globally earliest.
  void promote_due_wheel_slots(std::int64_t end_ns) {
    while (!heap_.empty() && !live(heap_.front())) {  // shed tombstones
      heap_pop_front();
      --tombstones_;
    }
    if (wheel_.empty()) return;
    const std::int64_t heap_top = heap_.empty() ? INT64_MAX : heap_.front().when_ns;
    const std::int64_t threshold = heap_top < end_ns ? heap_top : end_ns;
    // Hint first: a cheap field read rules out a poll on almost every
    // step. The hint is never too high, so trusting it cannot fire a
    // heap event ahead of an earlier wheel entry.
    if (wheel_.lower_bound_hint_ns() > threshold) return;
    // poll drains every slot at or before the threshold, so afterwards no
    // wheel entry can precede the (possibly new) heap front: drained
    // entries are pushed live, and the heap top can only move earlier.
    wheel_.poll(threshold, [this](const TimerWheel::Entry& e) {
      slab_[e.slot].wheel_node = TimerWheel::kNil;
      heap_push(HeapEntry{e.when_ns, e.seq, e.slot, e.gen});
    });
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
    // this very slot), cancel, or destroy its own captures.
    EventFn fn = std::move(rec.fn);
    rec.armed = false;
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
  TimerWheel wheel_;
  std::vector<Record> slab_;
  std::uint32_t free_head_ = kNilSlot;
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
