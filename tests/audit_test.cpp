// SPEAKUP_AUDIT structural self-checks (src/util/audit.hpp).
//
// Two halves:
//   - clean runs: real traffic (TCP handshakes, RTO timers, the client
//     pool) with explicit audit() calls sprinkled in — the
//     invariants must hold on live structures, not just empty ones;
//   - death tests: each structure's corrupt_*_for_test() hook plants the
//     signature of a real bug class (missed sift swap, lost table erase,
//     slab record freed while tabled, stale bitmap bit, clobbered heap key,
//     premature packet release, double erase) and audit() must catch it.
//     Without these, a vacuously-true audit would pass forever.
//
// The whole file GTEST_SKIPs unless built with -DSPEAKUP_AUDIT=ON in a
// Debug build (SPEAKUP_AUDIT_ENABLED) — CI's audit job is the build that
// runs it for real.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "client/client_pool.hpp"
#include "client/workload_params.hpp"
#include "core/auction_thinner.hpp"
#include "net/network.hpp"
#include "sim/event_loop.hpp"
#include "transport/host.hpp"
#include "transport/ooo_tracker.hpp"
#include "util/audit.hpp"
#include "util/rng.hpp"
#include "util/slab.hpp"

namespace speakup {
namespace {

#if !SPEAKUP_AUDIT_ENABLED

TEST(Audit, RequiresAuditBuild) {
  GTEST_SKIP() << "built without SPEAKUP_AUDIT (or NDEBUG): audit hooks are "
                  "compiled out; configure with -DSPEAKUP_AUDIT=ON and "
                  "-DCMAKE_BUILD_TYPE=Debug to run these";
}

#else

constexpr char kDeathMsg[] = "SPEAKUP_AUDIT invariant violated";

struct Rig {
  Rig() : net(loop) {
    sw = &net.add_switch("sw");
    thinner_host = &net.add_node<transport::Host>("thinner");
    net.connect(*thinner_host, *sw,
                net::LinkSpec{Bandwidth::gbps(1.0), Duration::micros(500), 4'000'000});
  }
  transport::Host& add_host(const std::string& name) {
    auto& h = net.add_node<transport::Host>(name);
    net.connect(h, *sw, net::LinkSpec{Bandwidth::mbps(2.0), Duration::micros(500), 48'000});
    return h;
  }
  void run_for(double sec) { loop.run_until(loop.now() + Duration::seconds(sec)); }
  sim::EventLoop loop;
  net::Network net;
  net::Switch* sw = nullptr;
  transport::Host* thinner_host = nullptr;
};

// ---------------------------------------------------------------------------
// Clean runs: audits hold on live, busy structures.
// ---------------------------------------------------------------------------

TEST(Audit, EventLoopCleanUnderChurn) {
  sim::EventLoop loop;
  // Mix of heap-resident (within the current tick / beyond the wheel's
  // ~4.9 h span) and wheel-resident deadlines, with cancellations to
  // exercise tombstones + free list.
  std::vector<sim::EventId> ids;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      const auto d = i % 5 == 4 ? Duration::seconds(6.0 * 3600 + i)           // beyond the span
                                : Duration::micros(1 + 7919 * i % 3'000'000);  // ns..seconds
      ids.push_back(loop.schedule(d, [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) loop.cancel(ids[i]);
    ids.clear();
    loop.audit();
    loop.run_until(loop.now() + Duration::millis(10));
    loop.audit();
  }
  loop.run_until(loop.now() + Duration::seconds(10));
  loop.audit();
}

TEST(Audit, EventLoopCleanWithEveryWheelLevelPopulated) {
  sim::EventLoop loop;
  // From time 0: one deadline inside the first tick (heap), five across
  // wheel levels L0…L3 (100 µs and 5 ms in L0, 300 ms in L1, 20 s in L2,
  // the 300 s request timeout in L3), and one beyond the ~4.9 h span
  // (heap). Each checkpoint drains one level's slot down through the
  // finer levels, so the audit sees every cascade.
  for (const Duration d :
       {Duration::nanos(5'000), Duration::micros(100), Duration::millis(5),
        Duration::millis(300), Duration::seconds(20), Duration::seconds(300),
        Duration::seconds(6.0 * 3600)}) {
    loop.schedule(d, [] {});
  }
  EXPECT_EQ(loop.wheel_size(), 5u);
  EXPECT_EQ(loop.heap_size(), 2u);
  loop.audit();
  for (const double t : {50e-6, 1e-3, 0.1, 10.0, 100.0, 400.0, 7.0 * 3600}) {
    loop.run_until(SimTime::zero() + Duration::seconds(t));
    loop.audit();
  }
  EXPECT_EQ(loop.executed_events(), 7u);
  EXPECT_EQ(loop.pending_events(), 0u);
}

// Regression: reschedule() of a heap-resident event tombstones the old
// entry before re-filing the record, and used to run maybe_compact() — and
// with it the compaction-time audit — in that window, when the armed record
// is resident in neither store. Enough heap-resident reschedules to cross
// the compaction threshold (heap >= 64, tombstones > half) made the audit
// abort a perfectly healthy loop. Caught live by dispatch_test's 720 s
// auction scenario in the CI audit job; pinned here at microscope size.
TEST(Audit, RescheduleCompactionAuditsConsistentState) {
  sim::EventLoop loop;
  // Deadlines inside the first wheel tick (< 16.384 µs from time 0) keep
  // every entry in the 4-ary heap, so each reschedule leaves a heap
  // tombstone behind.
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(loop.schedule(Duration::nanos(1'000 + 50 * i), [] {}));
  }
  // Fails loudly if a change to the store-choice policy moves these
  // entries out of the heap, which would silently retire this regression.
  ASSERT_GE(loop.heap_size(), 200u);
  for (int round = 0; round < 5; ++round) {
    for (auto& id : ids) {
      id = loop.reschedule(id, Duration::nanos(12'000 + 500 * round));
    }
    loop.audit();
  }
  loop.run();
  loop.audit();
}

TEST(Audit, OooTrackerCleanUnderMerges) {
  transport::OooTracker t;
  // insert()/pop_prefix() self-audit on every call; this exercises merge,
  // swallow, spill, and prefix-drain paths.
  std::uint64_t x = 12345;
  std::int64_t floor = 0;
  for (int i = 0; i < 2'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const auto begin = floor + 1 + static_cast<std::int64_t>((x >> 33) % 5'000);
    const auto len = 1 + static_cast<std::int64_t>((x >> 13) % 400);
    t.insert(begin, begin + len);
    if (i % 7 == 0) floor = t.pop_prefix(floor + static_cast<std::int64_t>(x % 1'000));
  }
  t.audit();
}

TEST(Audit, TrafficRigCleanAudits) {
  Rig rig;
  core::FrontEndConfig tc;
  tc.capacity_rps = 20.0;
  core::AuctionThinner thinner(*rig.thinner_host, tc, util::RngStream(9, "srv"));
  client::ClientPool pool(rig.loop, rig.thinner_host->id(),
                          client::good_client_params(), 0);
  std::vector<transport::Host*> hosts;
  for (int i = 0; i < 8; ++i) {
    hosts.push_back(&rig.add_host("c" + std::to_string(i)));
    pool.add_member(*hosts.back(), util::RngStream(9, "client." + std::to_string(i)));
  }
  pool.start_all();
  for (int step = 0; step < 10; ++step) {
    rig.run_for(3.0);
    rig.loop.audit();
    pool.audit();
    rig.thinner_host->audit();
    for (transport::Host* h : hosts) h->audit();
    rig.net.audit();
  }
}

// ---------------------------------------------------------------------------
// Death tests: planted corruption must be detected.
// ---------------------------------------------------------------------------

TEST(AuditDeathTest, EventLoopDetectsHeapCorruption) {
  EXPECT_DEATH(
      {
        sim::EventLoop loop;
        // Sub-tick deadlines stay in the heap; two entries give the
        // corrupted tail a parent to disagree with.
        (void)loop.schedule(Duration::zero(), [] {});
        (void)loop.schedule(Duration::zero(), [] {});
        loop.corrupt_heap_for_test();
        loop.audit();
      },
      kDeathMsg);
}

TEST(AuditDeathTest, EventLoopDetectsWheelBitmapCorruption) {
  EXPECT_DEATH(
      {
        sim::EventLoop loop;
        loop.corrupt_wheel_for_test();  // occupancy bit with no list behind it
        loop.audit();
      },
      kDeathMsg);
}

TEST(AuditDeathTest, HostDetectsLostTableEntry) {
  EXPECT_DEATH(
      {
        Rig rig;
        transport::Host& a = rig.add_host("a");
        transport::Host& b = rig.add_host("b");
        (void)a.connect(b.id(), 80);  // live slot + demux table entry on a
        a.corrupt_table_for_test();   // the signature of a lost erase
        a.audit();
      },
      kDeathMsg);
}

TEST(AuditDeathTest, HostDetectsSlotFreedWhileTabled) {
  EXPECT_DEATH(
      {
        Rig rig;
        transport::Host& a = rig.add_host("a");
        transport::Host& b = rig.add_host("b");
        (void)a.connect(b.id(), 80);  // live slab record + demux table entry on a
        a.corrupt_slab_for_test();    // record returned while a still tables it
        a.audit();
      },
      kDeathMsg);
}

TEST(AuditDeathTest, NetworkDetectsPrematurePacketRelease) {
  EXPECT_DEATH(
      {
        Rig rig;
        transport::Host& a = rig.add_host("a");
        // Three back-to-back packets onto a's 2 Mbit/s access link: one
        // serializes, two wait in the queue's list.
        for (int i = 0; i < 3; ++i) {
          rig.net.forward(a.id(), net::make_data_packet(a.id(), 1, rig.thinner_host->id(), 80,
                                                        0, 1000));
        }
        rig.net.audit();                  // clean so far
        rig.net.corrupt_pool_for_test();  // a queued record also on the free list
        rig.net.audit();
      },
      kDeathMsg);
}

TEST(AuditDeathTest, SlabDetectsDoubleErase) {
  using IntSlab = util::Slab<int, 4>;
  EXPECT_DEATH(
      {
        IntSlab slab;
        (void)slab.emplace(1);
        (void)slab.emplace(2);
        slab.erase(0);
        slab.erase(0);  // the signature of a double free
        (void)slab.audit();
      },
      kDeathMsg);
}

TEST(AuditDeathTest, ClientPoolDetectsHeapOrderViolation) {
  EXPECT_DEATH(
      {
        Rig rig;
        client::ClientPool pool(rig.loop, rig.thinner_host->id(),
                                client::good_client_params(), 0);
        pool.add_member(rig.add_host("c0"), util::RngStream(1, "c0"));
        pool.add_member(rig.add_host("c1"), util::RngStream(1, "c1"));
        pool.start_all();                // two members in the cohort heap
        pool.corrupt_heap_for_test();    // root and last swapped: a missed sift
        pool.audit();
      },
      kDeathMsg);
}

#endif  // SPEAKUP_AUDIT_ENABLED

}  // namespace
}  // namespace speakup
