// Tests for the discrete-event loop: ordering, determinism, cancellation,
// timers.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "sim/event_loop.hpp"
#include "sim/timer.hpp"

namespace speakup::sim {
namespace {

TEST(EventLoop, StartsAtZero) {
  EventLoop loop;
  EXPECT_EQ(loop.now().ns(), 0);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(Duration::millis(30), [&] { order.push_back(3); });
  loop.schedule(Duration::millis(10), [&] { order.push_back(1); });
  loop.schedule(Duration::millis(20), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, TiesBreakByInsertionOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule(Duration::millis(5), [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventLoop, ClockAdvancesToEventTime) {
  EventLoop loop;
  SimTime seen;
  loop.schedule(Duration::seconds(2.5), [&] { seen = loop.now(); });
  loop.run();
  EXPECT_DOUBLE_EQ(seen.sec(), 2.5);
}

TEST(EventLoop, RunUntilStopsAtDeadlineAndAdvancesClock) {
  EventLoop loop;
  int fired = 0;
  loop.schedule(Duration::seconds(1.0), [&] { ++fired; });
  loop.schedule(Duration::seconds(5.0), [&] { ++fired; });
  loop.run_until(SimTime::zero() + Duration::seconds(2.0));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(loop.now().sec(), 2.0);
  // The 5 s event is still pending and fires on a later run.
  loop.run_until(SimTime::zero() + Duration::seconds(10.0));
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, EventExactlyAtDeadlineRuns) {
  EventLoop loop;
  int fired = 0;
  loop.schedule(Duration::seconds(2.0), [&] { ++fired; });
  loop.run_until(SimTime::zero() + Duration::seconds(2.0));
  EXPECT_EQ(fired, 1);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  int fired = 0;
  EventId id = loop.schedule(Duration::millis(10), [&] { ++fired; });
  EXPECT_TRUE(id.pending());
  loop.cancel(id);
  EXPECT_FALSE(id.pending());
  loop.run();
  EXPECT_EQ(fired, 0);
}

TEST(EventLoop, CancelAfterFireIsNoop) {
  EventLoop loop;
  int fired = 0;
  EventId id = loop.schedule(Duration::millis(10), [&] { ++fired; });
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(id.pending());
  loop.cancel(id);  // must not crash or double-count
  EXPECT_EQ(fired, 1);
}

TEST(EventLoop, EventsScheduledDuringEventsRun) {
  EventLoop loop;
  std::vector<double> times;
  loop.schedule(Duration::millis(10), [&] {
    times.push_back(loop.now().sec());
    loop.schedule(Duration::millis(10), [&] { times.push_back(loop.now().sec()); });
  });
  loop.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 0.010);
  EXPECT_DOUBLE_EQ(times[1], 0.020);
}

TEST(EventLoop, ZeroDelayRunsAtSameTime) {
  EventLoop loop;
  double t = -1;
  loop.schedule(Duration::millis(7), [&] {
    loop.schedule(Duration::zero(), [&] { t = loop.now().sec(); });
  });
  loop.run();
  EXPECT_DOUBLE_EQ(t, 0.007);
}

TEST(EventLoop, PendingCountTracksLifecycle) {
  EventLoop loop;
  EventId a = loop.schedule(Duration::millis(1), [] {});
  EventId b = loop.schedule(Duration::millis(2), [] {});
  EXPECT_EQ(loop.pending_events(), 2u);
  loop.cancel(a);
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.run();
  EXPECT_EQ(loop.pending_events(), 0u);
  (void)b;
}

TEST(EventLoop, ExecutedEventsCountsOnlyFired) {
  EventLoop loop;
  loop.schedule(Duration::millis(1), [] {});
  EventId c = loop.schedule(Duration::millis(2), [] {});
  loop.cancel(c);
  loop.run();
  EXPECT_EQ(loop.executed_events(), 1u);
}

TEST(Timer, FiresAfterDelay) {
  EventLoop loop;
  int fired = 0;
  Timer t(loop);
  t.restart(Duration::millis(5), [&] { ++fired; });
  EXPECT_TRUE(t.pending());
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.pending());
}

TEST(Timer, RestartSupersedesPreviousArming) {
  EventLoop loop;
  std::vector<double> at;
  const auto record = [&] { at.push_back(loop.now().sec()); };
  Timer t(loop);
  t.restart(Duration::millis(5), record);
  t.restart(Duration::millis(20), record);
  loop.run();
  ASSERT_EQ(at.size(), 1u);
  EXPECT_DOUBLE_EQ(at[0], 0.020);
}

TEST(Timer, CancelStopsFiring) {
  EventLoop loop;
  int fired = 0;
  Timer t(loop);
  t.restart(Duration::millis(5), [&] { ++fired; });
  t.cancel();
  loop.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, DestructionCancels) {
  EventLoop loop;
  int fired = 0;
  {
    Timer t(loop);
    t.restart(Duration::millis(5), [&] { ++fired; });
  }
  loop.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, CallbackMayDestroyOwnTimer) {
  // Protocol code routinely tears down the state that owns the timer from
  // inside the timeout handler; this must not crash.
  EventLoop loop;
  auto owner = std::make_unique<Timer>(loop);
  auto holder = std::make_unique<Timer>(loop);
  holder->restart(Duration::millis(1), [&] {
    owner.reset();  // destroys the other timer
  });
  owner->restart(Duration::millis(10), [] {});
  loop.run();
  EXPECT_EQ(owner, nullptr);
}

TEST(Timer, SelfDestructionInsideOwnCallback) {
  EventLoop loop;
  auto t = std::make_unique<Timer>(loop);
  int fired = 0;
  t->restart(Duration::millis(1), [&] {
    ++fired;
    t.reset();  // destroy the timer from within its own callback
  });
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(t, nullptr);
}

TEST(Timer, PeriodicRestartPattern) {
  EventLoop loop;
  int fired = 0;
  Timer t(loop);
  std::function<void()> tick = [&] {
    if (++fired < 5) t.restart(Duration::millis(10), [&] { tick(); });
  };
  t.restart(Duration::millis(10), [&] { tick(); });
  loop.run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(loop.now().sec(), 0.050);
}

TEST(Timer, PendingRestartKeepsItsArmedCallback) {
  // Rescheduling in place reuses the event record, callback included:
  // that is what keeps per-ack RTO re-arms free of closure churn.
  EventLoop loop;
  int first = 0;
  int second = 0;
  Timer t(loop);
  t.restart(Duration::millis(5), [&] { ++first; });
  t.restart(Duration::millis(20), [&] { ++second; });
  loop.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
  EXPECT_EQ(loop.now().ns(), Duration::millis(20).ns());
}

}  // namespace
}  // namespace speakup::sim
