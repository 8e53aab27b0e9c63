// Edge-case tests for the slab-based event loop: horizon/overflow handling,
// generation-counted cancellation (including via copied handles), tombstone
// compaction bounds, in-callback schedule/cancel semantics, and the
// zero-steady-state-allocation guarantee of schedule and the Link packet
// pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <type_traits>
#include <vector>

#include "net/network.hpp"
#include "sim/event_fn.hpp"
#include "sim/event_loop.hpp"

// Zero-allocation assertions use util::AllocGuard; the counting operator
// new lives in the speakup_counted_new object library (see
// src/util/alloc_guard.hpp). Only the *delta* inside a measured region
// matters; gtest and the warm-up phases may allocate freely.
#include "util/alloc_guard.hpp"

namespace speakup::sim {
namespace {

// --- horizon & overflow ----------------------------------------------------

TEST(EventLoopEdge, RunDrainsEventsNearTheHorizon) {
  // The old loop silently capped run() at INT64_MAX / 8 ns; events at or
  // past that never fired and the caller got no signal.
  EventLoop loop;
  std::vector<int> fired;
  loop.schedule_at(SimTime::from_ns(INT64_MAX / 8), [&] { fired.push_back(1); });
  loop.schedule_at(SimTime::from_ns(INT64_MAX / 2), [&] { fired.push_back(2); });
  loop.schedule_at(EventLoop::max_time(), [&] { fired.push_back(3); });
  loop.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_EQ(loop.now().ns(), EventLoop::max_time().ns());
}

TEST(EventLoopEdge, OverflowingDelaySaturatesToHorizon) {
  // now + delay would wrap negative; the loop must saturate, not trip an
  // assert with a misleading message (or worse, pass a negative time).
  EventLoop loop;
  loop.schedule(Duration::millis(1), [] {});
  loop.run();  // advance the clock so now_ > 0
  int fired = 0;
  EventId id = loop.schedule(Duration::nanos(INT64_MAX), [&] { ++fired; });
  EXPECT_TRUE(id.pending());
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now().ns(), EventLoop::max_time().ns());
}

TEST(EventLoopEdge, InfiniteDurationIsSchedulableAndOrdered) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(Duration::infinite(), [&] { order.push_back(1); });
  loop.schedule(Duration::nanos(INT64_MAX), [&] { order.push_back(2); });  // saturates later
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoopEdge, ScheduleAtRejectsPastTimesWithDiagnostic) {
  EventLoop loop;
  loop.schedule(Duration::millis(5), [] {});
  loop.run();
  // A wrapped-negative SimTime (the classic overflow symptom) is rejected
  // with an explanation instead of an opaque assert.
  EXPECT_THROW((void)loop.schedule_at(SimTime::from_ns(-1), [] {}), std::invalid_argument);
  EXPECT_THROW((void)loop.schedule_at(SimTime::from_ns(1), [] {}), std::invalid_argument);
}

// --- cancellation via copies & generations ---------------------------------

TEST(EventLoopEdge, CancelViaCopiedEventId) {
  EventLoop loop;
  int fired = 0;
  EventId original = loop.schedule(Duration::millis(10), [&] { ++fired; });
  EventId copy = original;
  loop.cancel(copy);
  EXPECT_FALSE(copy.valid());       // the handle passed to cancel is reset
  EXPECT_TRUE(original.valid());    // the sibling copy is untouched...
  EXPECT_FALSE(original.pending()); // ...but sees the event as gone
  loop.run();
  EXPECT_EQ(fired, 0);
  // Cancelling again through the stale sibling is a harmless no-op.
  loop.cancel(original);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoopEdge, StaleIdDoesNotCancelSlotReuse) {
  // After an event fires, its slab slot is recycled. A stale handle to the
  // fired event must not be able to cancel the new occupant.
  EventLoop loop;
  EventId first = loop.schedule(Duration::millis(1), [] {});
  loop.run();
  int fired = 0;
  EventId second = loop.schedule(Duration::millis(1), [&] { ++fired; });
  loop.cancel(first);  // stale generation: must not touch `second`
  EXPECT_TRUE(second.pending());
  loop.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventLoopEdge, CancelAndScheduleFromInsideFiringCallback) {
  EventLoop loop;
  std::vector<int> fired;
  EventId doomed;
  loop.schedule(Duration::millis(1), [&] {
    fired.push_back(1);
    loop.cancel(doomed);                                        // cancel a later event
    loop.schedule(Duration::millis(1), [&] { fired.push_back(3); });  // and add a new one
  });
  doomed = loop.schedule(Duration::millis(2), [&] { fired.push_back(2); });
  loop.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventLoopEdge, OwnEventIsNotPendingInsideItsCallback) {
  EventLoop loop;
  EventId self;
  bool pending_inside = true;
  self = loop.schedule(Duration::millis(1), [&] {
    pending_inside = self.pending();
    loop.cancel(self);  // cancelling yourself mid-flight is a no-op
  });
  loop.run();
  EXPECT_FALSE(pending_inside);
  EXPECT_EQ(loop.executed_events(), 1u);
}

TEST(EventLoopEdge, ZeroDelaySelfReschedulingOrder) {
  // Zero-delay events run at the same instant but strictly after anything
  // already queued for that instant (sequence order), and a zero-delay
  // chain makes progress in insertion order.
  EventLoop loop;
  std::vector<char> order;
  loop.schedule(Duration::millis(1), [&] {
    order.push_back('a');
    loop.schedule(Duration::zero(), [&] {
      order.push_back('c');
      loop.schedule(Duration::zero(), [&] { order.push_back('d'); });
    });
  });
  loop.schedule(Duration::millis(1), [&] { order.push_back('b'); });
  loop.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c', 'd'}));
  EXPECT_DOUBLE_EQ(loop.now().sec(), 0.001);
}

// --- reschedule (in-place re-arm) ------------------------------------------

TEST(EventLoopEdge, RescheduleMovesDeadlineAndInvalidatesOldHandles) {
  EventLoop loop;
  int fired = 0;
  EventId original = loop.schedule(Duration::millis(10), [&] { ++fired; });
  EventId copy = original;
  EventId moved = loop.reschedule(original, Duration::millis(50));
  EXPECT_FALSE(copy.pending());  // pre-move handles are stale...
  EXPECT_TRUE(moved.pending());  // ...the replacement is live
  loop.cancel(copy);             // stale cancel must not touch the moved event
  EXPECT_TRUE(moved.pending());
  loop.run_until(SimTime::zero() + Duration::millis(20));
  EXPECT_EQ(fired, 0);  // the old deadline no longer exists
  loop.run();
  EXPECT_EQ(fired, 1);  // the callback survived the move and fired once
  EXPECT_DOUBLE_EQ(loop.now().sec(), 0.050);
}

TEST(EventLoopEdge, RescheduleOrdersAsIfFreshlyScheduled) {
  // reschedule is documented as cancel + schedule with the same callback:
  // on a deadline tie, a rescheduled event must fire AFTER an event that
  // was scheduled for that instant before the move.
  EventLoop loop;
  std::vector<int> order;
  EventId moved = loop.schedule(Duration::millis(1), [&] { order.push_back(1); });
  loop.schedule(Duration::millis(30), [&] { order.push_back(2); });
  (void)loop.reschedule(moved, Duration::millis(30));  // tie with event 2, later seq
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventLoopEdge, RescheduleAcrossStoresKeepsOrderAndCounts) {
  // Move an event back and forth between heap residency (sub-tick delays)
  // and wheel residency (tens of ms) — counts and firing must be exact.
  EventLoop loop;
  int fired = 0;
  EventId id = loop.schedule(Duration::micros(5), [&] { ++fired; });  // heap
  id = loop.reschedule(id, Duration::millis(20));                     // wheel
  id = loop.reschedule(id, Duration::micros(5));                      // heap again
  id = loop.reschedule(id, Duration::millis(40));                     // wheel again
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(loop.now().sec(), 0.040);
  EXPECT_EQ(loop.pending_events(), 0u);
}

// --- tombstones & compaction -----------------------------------------------

TEST(EventLoopEdge, PendingCountIsAccurateUnderTombstones) {
  EventLoop loop;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(loop.schedule(Duration::millis(10 + i), [] {}));
  }
  for (int i = 0; i < 60; ++i) loop.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(loop.pending_events(), 40u);
  loop.run();
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_EQ(loop.executed_events(), 40u);
}

TEST(EventLoopEdge, CancelHeavyWorkloadKeepsHeapBounded) {
  // The retry-timer pattern: every tick arms timeouts far in the future and
  // cancels the previous tick's. Before compaction existed, the heap grew
  // by ~8 tombstones per tick for the whole timeout window.
  struct Driver {
    EventLoop loop;
    std::vector<EventId> armed;
    int ticks = 0;
    std::size_t max_heap = 0;
    void tick() {
      for (EventId& id : armed) loop.cancel(id);
      armed.clear();
      for (int i = 0; i < 8; ++i) {
        armed.push_back(loop.schedule(Duration::millis(10), [] {}));
      }
      max_heap = std::max(max_heap, loop.heap_size());
      if (++ticks < 5000) loop.schedule(Duration::micros(1), [this] { tick(); });
    }
  } d;
  d.armed.reserve(8);
  d.loop.schedule(Duration::micros(1), [&d] { d.tick(); });
  d.loop.run();
  EXPECT_EQ(d.ticks, 5000);
  // Live events never exceed 9 (8 timers + driver); the compaction policy
  // bounds the heap at 2x live + the no-compact floor. Without compaction
  // this workload peaks at tens of thousands of entries.
  EXPECT_LE(d.max_heap, 2u * 9u + 64u);
}

TEST(EventLoopEdge, MassCancellationLeavesNoResidue) {
  // Timer-range deadlines (100 ms – 1.1 s) are wheel-resident; mass
  // cancellation must unlink them eagerly — no tombstones anywhere.
  EventLoop loop;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(loop.schedule(Duration::millis(100 + i), [] {}));
  }
  EXPECT_EQ(loop.wheel_size(), 1000u);
  EXPECT_EQ(loop.heap_size(), 0u);
  for (EventId& id : ids) loop.cancel(id);
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_EQ(loop.wheel_size(), 0u);
  EXPECT_EQ(loop.heap_size(), 0u);
  loop.run();
  EXPECT_EQ(loop.executed_events(), 0u);
}

// --- store residency ---------------------------------------------------------
// The wheel spans from the next tick (~16 µs) to ~4.9 h, so every protocol
// timer — RTOs, payment windows, the 300 s request timeout — is filed there
// and cancelled eagerly. Only deadlines inside the current tick and beyond
// the span are heap-resident.

TEST(EventLoopEdge, ProtocolTimerDeadlinesAreWheelResident) {
  for (const Duration d : {Duration::seconds(300), Duration::micros(500)}) {
    EventLoop loop;
    EventId id = loop.schedule(d, [] {});
    EXPECT_EQ(loop.wheel_size(), 1u) << d.ns() << " ns";
    EXPECT_EQ(loop.heap_size(), 0u) << d.ns() << " ns";
    loop.cancel(id);
    EXPECT_EQ(loop.wheel_size(), 0u) << d.ns() << " ns";
    EXPECT_EQ(loop.heap_size(), 0u) << d.ns() << " ns";
  }
}

TEST(EventLoopEdge, SubTickAndBeyondSpanDeadlinesAreHeapResident) {
  for (const Duration d : {Duration::micros(10), Duration::seconds(6.0 * 3600)}) {
    EventLoop loop;
    loop.schedule(d, [] {});
    EXPECT_EQ(loop.heap_size(), 1u) << d.ns() << " ns";
    EXPECT_EQ(loop.wheel_size(), 0u) << d.ns() << " ns";
    loop.run();
    EXPECT_EQ(loop.executed_events(), 1u);
    EXPECT_EQ(loop.now().ns(), d.ns());
  }
}

TEST(EventLoopEdge, RequestTimeoutPatternLeavesNoHeapTombstones) {
  // Every request arms a 300 s timeout that the response almost always
  // beats. With those timeouts wheel-resident the heap holds only the
  // ticker; were they heap-resident, each cancel would leave a tombstone
  // and the heap would fill up to the 64-entry compaction floor.
  struct Ticker {
    EventLoop loop;
    EventId timeout;
    int ticks = 0;
    std::size_t max_heap = 0;
    void tick() {
      loop.cancel(timeout);
      timeout = loop.schedule(Duration::seconds(300), [] {});
      if (++ticks < 10'000) loop.schedule(Duration::micros(1), [this] { tick(); });
      max_heap = std::max(max_heap, loop.heap_size());
    }
  } t;
  t.loop.schedule(Duration::micros(1), [&t] { t.tick(); });
  t.loop.run();
  EXPECT_EQ(t.ticks, 10'000);
  EXPECT_LE(t.max_heap, 2u);
  EXPECT_EQ(t.loop.executed_events(), 10'001u);  // the ticks + the last timeout
}

TEST(EventLoopEdge, MassCancellationCompactsTheHeap) {
  // Sub-tick deadlines stay heap-resident, so this is the compaction path:
  // everything is dead after the cancels, and the heap must have shrunk
  // below the no-compact floor instead of holding 1000 tombstones.
  EventLoop loop;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(loop.schedule(Duration::micros(1 + i % 16), [] {}));
  }
  EXPECT_EQ(loop.heap_size(), 1000u);
  for (EventId& id : ids) loop.cancel(id);
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_LT(loop.heap_size(), 64u);
  loop.run();
  EXPECT_EQ(loop.executed_events(), 0u);
}

TEST(EventLoopEdge, CompactionPreservesFiringOrder) {
  EventLoop loop;
  std::vector<int> fired;
  std::vector<EventId> doomed;
  // Interleave survivors and victims at identical times so the rebuilt heap
  // must preserve (time, seq) ordering exactly.
  for (int i = 0; i < 200; ++i) {
    const int tag = i;
    loop.schedule(Duration::millis(5 + (i % 3)), [&fired, tag] { fired.push_back(tag); });
    doomed.push_back(loop.schedule(Duration::millis(5 + (i % 3)), [] {}));
  }
  for (EventId& id : doomed) loop.cancel(id);  // triggers compaction mid-way
  loop.run();
  ASSERT_EQ(fired.size(), 200u);
  // Expected order: by (time, insertion seq) — i.e. all i%3==0 first in
  // insertion order, then i%3==1, then i%3==2.
  std::vector<int> expected;
  for (int phase = 0; phase < 3; ++phase) {
    for (int i = phase; i < 200; i += 3) expected.push_back(i);
  }
  EXPECT_EQ(fired, expected);
}

// --- EventFn ---------------------------------------------------------------

TEST(EventFnTest, MoveTransfersAndEmptiesSource) {
  int calls = 0;
  EventFn a = [&calls] { ++calls; };
  EXPECT_TRUE(static_cast<bool>(a));
  EventFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move): testing the contract
  b();
  EXPECT_EQ(calls, 1);
}

TEST(EventFnTest, RefusesCapturesThatAreNotTriviallyCopyableOrTooLarge) {
  // A capture must be copyable as bytes and need no destructor: the slab
  // copies callbacks in and out and never destroys one. Anything else is
  // refused at compile time, so it can never reach the loop.
  struct Owning {
    std::vector<int> state;
    void operator()() const {}
  };
  struct Oversized {
    std::int64_t words[4];
    void operator()() const {}
  };
  struct Fits {
    std::int64_t words[3];
    void operator()() const {}
  };
  static_assert(!std::is_constructible_v<EventFn, Owning>);
  static_assert(!std::is_constructible_v<EventFn, Oversized>);
  static_assert(!std::is_constructible_v<EventFn, std::function<void()>>);
  static_assert(std::is_constructible_v<EventFn, Fits>);
  static_assert(sizeof(Fits) == EventFn::kCapacity);
  int calls = 0;
  EventFn f = [p = &calls] { ++*p; };
  f();
  EXPECT_EQ(calls, 1);
}

// --- zero steady-state allocations -----------------------------------------

TEST(EventLoopEdge, SteadyStateScheduleCancelFireIsAllocationFree) {
  EventLoop loop;
  std::vector<EventId> ids;
  ids.reserve(64);
  long fired = 0;
  // Warm-up: grow the slab, heap, and this test's own vectors.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i) {
      ids.push_back(loop.schedule(Duration::millis(10), [&fired] { ++fired; }));
    }
    for (int i = 0; i < 25; ++i) loop.cancel(ids[static_cast<std::size_t>(i)]);
    ids.clear();
    loop.run();
  }
  // Measured region: the same churn must not allocate at all.
#if SPEAKUP_AUDIT_ENABLED
  // Audit checkpoints may allocate scratch inside the measured region.
  GTEST_SKIP() << "zero-alloc guarantees are not measured in SPEAKUP_AUDIT builds";
#endif
  ASSERT_TRUE(util::AllocGuard::counting()) << "speakup_counted_new not linked";
  const util::AllocGuard guard;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 50; ++i) {
      ids.push_back(loop.schedule(Duration::millis(10), [&fired] { ++fired; }));
    }
    for (int i = 0; i < 25; ++i) loop.cancel(ids[static_cast<std::size_t>(i)]);
    ids.clear();
    loop.run();
  }
  EXPECT_EQ(guard.delta(), 0) << "EventLoop schedule/cancel/fire allocated in steady state";
}

class Reflector : public net::Node {
 public:
  Reflector(net::Network& net, net::NodeId id, std::string name)
      : net::Node(net, id, std::move(name)) {}
  void on_packet(net::Packet p) override {
    if (!reply_) return;
    network().forward(id(), net::make_data_packet(id(), 1, p.src, 1, 0, 500));
  }
  void stop() { reply_ = false; }

 private:
  bool reply_ = true;
};

TEST(LinkHotPath, SteadyStatePacketPipelineIsAllocationFree) {
  EventLoop loop;
  net::Network net(loop);
  auto& a = net.add_node<Reflector>("a");
  auto& b = net.add_node<Reflector>("b");
  net.connect(a, b, net::LinkSpec{Bandwidth::mbps(100.0), Duration::micros(100), 1'000'000});
  net.build_routes();
  for (int i = 0; i < 8; ++i) {
    net.forward(a.id(), net::make_data_packet(a.id(), 1, b.id(), 1, 0, 500));
  }
  // Warm-up: let the link pool, queue ring, and heap reach steady state.
  loop.run_until(loop.now() + Duration::seconds(1.0));
  const std::uint64_t warm_events = loop.executed_events();
  // Measured region: a long steady-state stretch of the packet pipeline.
#if SPEAKUP_AUDIT_ENABLED
  // Audit checkpoints may allocate scratch inside the measured region.
  GTEST_SKIP() << "zero-alloc guarantees are not measured in SPEAKUP_AUDIT builds";
#endif
  ASSERT_TRUE(util::AllocGuard::counting()) << "speakup_counted_new not linked";
  const util::AllocGuard guard;
  loop.run_until(loop.now() + Duration::seconds(10.0));
  EXPECT_EQ(guard.delta(), 0) << "Link::transmit pipeline allocated in steady state";
  EXPECT_GT(loop.executed_events(), warm_events + 1000u);  // the region really ran traffic
  a.stop();
  b.stop();
  loop.run();
}

}  // namespace
}  // namespace speakup::sim
