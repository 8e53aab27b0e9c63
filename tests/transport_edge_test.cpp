// Edge-case and failure-injection tests for the TCP model: window caps,
// RTO backoff under blackout (single-application pinned against Karn's
// rule), stale-packet handling, accessor semantics, the zero-allocation
// guarantee of the loss path, and parameterized throughput sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/event_loop.hpp"
#include "tcp_test_listener.hpp"
#include "transport/host.hpp"

// Zero-allocation assertions use util::AllocGuard; the counting operator
// new lives in the speakup_counted_new object library. Only the *delta*
// inside a measured region matters, so gtest and the warm-up phases may
// allocate freely.
#include "util/alloc_guard.hpp"

namespace speakup::transport {
namespace {

struct Pair {
  explicit Pair(const net::LinkSpec& spec, TcpConfig cfg = {}) : net(loop) {
    a = &net.add_node<Host>("a");
    b = &net.add_node<Host>("b");
    a->set_tcp_config(cfg);
    b->set_tcp_config(cfg);
    net.connect(*a, *b, spec);
    net.build_routes();
  }
  void run_for(double sec) { loop.run_until(loop.now() + Duration::seconds(sec)); }
  sim::EventLoop loop;
  net::Network net;
  Host* a = nullptr;
  Host* b = nullptr;
};

TEST(TcpEdge, MaxInflightCapsThroughputOnLongFatPath) {
  // 100 Mbit/s, 100 ms RTT: BDP = 1.25 MB >> the 64 KB window, so goodput
  // is window/RTT ~= 5 Mbit/s, not the link rate.
  test::FnListeners listeners;
  Pair p(net::LinkSpec{Bandwidth::mbps(100.0), Duration::millis(50), 4'000'000});
  Bytes delivered = 0;
  p.b->listen(80, [&](TcpConnection& c) {
    auto& cbs = listeners.attach(c);
    cbs.data = [&](Bytes n) { delivered += n; };
  });
  p.a->connect(p.b->id(), 80).write(megabytes(20));
  p.run_for(10.0);
  const double mbps = static_cast<double>(delivered) * 8 / 10.0 / 1e6;
  EXPECT_GT(mbps, 3.0);
  EXPECT_LT(mbps, 8.0);  // ~64 KB / 100 ms = 5.2 Mbit/s
}

TEST(TcpEdge, LargerWindowRaisesLongFatThroughput) {
  test::FnListeners listeners;
  TcpConfig big;
  big.max_inflight = 512 * 1024;
  big.initial_ssthresh = 512 * 1024;
  Pair p(net::LinkSpec{Bandwidth::mbps(100.0), Duration::millis(50), 4'000'000}, big);
  Bytes delivered = 0;
  p.b->listen(80, [&](TcpConnection& c) {
    auto& cbs = listeners.attach(c);
    cbs.data = [&](Bytes n) { delivered += n; };
  });
  p.a->connect(p.b->id(), 80).write(megabytes(40));
  p.run_for(10.0);
  EXPECT_GT(static_cast<double>(delivered) * 8 / 10.0 / 1e6, 20.0);
}

TEST(TcpEdge, SenderSurvivesTotalBlackout) {
  // The peer vanishes mid-transfer (we model it by aborting the receiving
  // endpoint silently — its RST races ahead but the sender's state machine
  // must terminate cleanly either way).
  test::FnListeners listeners;
  Pair p(net::LinkSpec{Bandwidth::mbps(2.0), Duration::millis(5), 96'000});
  TcpConnection* server_side = nullptr;
  p.b->listen(80, [&](TcpConnection& c) { server_side = &c; });
  TcpConnection& c = p.a->connect(p.b->id(), 80);
  bool reset = false;
  auto& cbs = listeners.attach(c);
  cbs.reset = [&] { reset = true; };
  c.write(megabytes(1));
  p.run_for(1.0);
  ASSERT_NE(server_side, nullptr);
  server_side->abort();
  p.run_for(5.0);
  EXPECT_TRUE(reset);      // sender learned via RST
  EXPECT_TRUE(c.closed());
}

TEST(TcpEdge, StaleDataAfterTeardownDrawsRst) {
  // After the receiver's endpoint disappears, retransmissions hit the host
  // demux miss path and draw an RST, closing the sender.
  Pair p(net::LinkSpec{Bandwidth::mbps(2.0), Duration::millis(5), 96'000});
  p.b->listen(80, [](TcpConnection&) {});
  TcpConnection& c = p.a->connect(p.b->id(), 80);
  c.write(kilobytes(10));
  p.run_for(1.0);
  EXPECT_TRUE(c.established());
  // Kill the server-side connection behind the sender's back.
  TcpConnection* srv = p.b->find_connection(80, p.a->id(), c.local_port());
  ASSERT_NE(srv, nullptr);
  srv->abort();
  p.run_for(0.5);
  c.write(kilobytes(10));  // more data -> RST -> close
  p.run_for(5.0);
  EXPECT_TRUE(c.closed());
}

TEST(TcpEdge, RtoBackoffGrowsExponentially) {
  // A connection whose peer never answers: SYN retries should back off and
  // eventually give up (max_syn_retries).
  test::FnListeners listeners;
  TcpConfig cfg;
  cfg.max_syn_retries = 3;
  sim::EventLoop loop;
  net::Network net(loop);
  auto& a = net.add_node<Host>("a");
  auto& blackhole = net.add_switch("blackhole");  // switch sinks the packets
  a.set_tcp_config(cfg);
  net.connect(a, blackhole,
              net::LinkSpec{Bandwidth::mbps(2.0), Duration::millis(1), 96'000});
  net.build_routes();
  bool reset = false;
  TcpConnection& c = a.connect(blackhole.id(), 80);
  auto& cbs = listeners.attach(c);
  cbs.reset = [&] { reset = true; };
  // 3 s + 6 s + 12 s + 24 s of backoff before giving up: not yet at 20 s...
  loop.run_until(SimTime::zero() + Duration::seconds(20.0));
  EXPECT_FALSE(reset);
  // ...but done by 50 s.
  loop.run_until(SimTime::zero() + Duration::seconds(50.0));
  EXPECT_TRUE(reset);
  EXPECT_TRUE(c.closed());
  EXPECT_EQ(c.timeouts(), 4);  // 3 retries + the final firing
}

TEST(TcpEdge, SynRetransmissionBacksOffExactlyOncePerTimeout) {
  // Pins the backoff ladder byte for byte: with initial_rto = 3 s the SYN
  // retransmissions must land at exactly t = 3, 9, 21 s (doubling once per
  // expiry) and the give-up at t = 45 s. A double-applied backoff would
  // move the second retry from 9 s to 15 s and trip the boundary checks.
  TcpConfig cfg;
  cfg.max_syn_retries = 3;
  sim::EventLoop loop;
  net::Network net(loop);
  auto& a = net.add_node<Host>("a");
  auto& blackhole = net.add_switch("blackhole");
  a.set_tcp_config(cfg);
  net.connect(a, blackhole,
              net::LinkSpec{Bandwidth::mbps(2.0), Duration::millis(1), 96'000});
  net.build_routes();
  TcpConnection& c = a.connect(blackhole.id(), 80);
  const struct {
    double at_sec;
    std::int64_t timeouts;
  } ladder[] = {{2.9, 0}, {3.1, 1}, {8.9, 1}, {9.1, 2}, {20.9, 2}, {21.1, 3}, {44.9, 3}};
  for (const auto& step : ladder) {
    loop.run_until(SimTime::zero() + Duration::seconds(step.at_sec));
    EXPECT_EQ(c.timeouts(), step.timeouts) << "at t=" << step.at_sec;
    EXPECT_FALSE(c.closed()) << "at t=" << step.at_sec;
  }
  loop.run_until(SimTime::zero() + Duration::seconds(45.1));
  EXPECT_TRUE(c.closed());
}

TEST(TcpEdge, KarnsRuleKeepsSingleBackoffAfterSynRetransmission) {
  // A 2 s one-way delay makes the SYN-ACK arrive (t=4 s) after the first
  // RTO (t=3 s): the SYN is retransmitted exactly once. Karn's rule then
  // forbids an RTT sample from the retransmitted handshake, so the
  // connection must establish with rto == 2 * initial_rto — one backoff,
  // not two — and no RTT estimate until fresh data is acked.
  Pair p(net::LinkSpec{Bandwidth::mbps(10.0), Duration::seconds(2.0), 96'000});
  p.b->listen(80, [](TcpConnection&) {});
  TcpConnection& c = p.a->connect(p.b->id(), 80);
  p.run_for(4.5);  // SYN t=0 lost to no one — it arrives; its ack is just late
  EXPECT_TRUE(c.established());
  EXPECT_EQ(c.timeouts(), 1);
  EXPECT_EQ(c.srtt().ns(), 0);  // Karn: no sample from a retransmitted range
  EXPECT_EQ(c.rto().ns(), 2 * p.a->tcp_config().initial_rto.ns());
  // Fresh data eventually yields a sample and the estimator takes over.
  c.write(1000);
  p.run_for(10.0);
  EXPECT_GT(c.srtt().ns(), 0);
}

TEST(TcpEdge, BytesWrittenCountsAppSubmissionNotTransmission) {
  // bytes_written() is the application-side count: write() credits it in
  // full immediately, while bytes_sent()/bytes_acked() trail behind at the
  // pace the window and the wire allow.
  Pair p(net::LinkSpec{Bandwidth::mbps(1.0), Duration::millis(5), 96'000});
  p.b->listen(80, [](TcpConnection&) {});
  TcpConnection& c = p.a->connect(p.b->id(), 80);
  c.write(megabytes(1));
  EXPECT_EQ(c.bytes_written(), megabytes(1));  // before the handshake even completes
  EXPECT_EQ(c.bytes_sent(), 0);
  p.run_for(1.0);
  EXPECT_EQ(c.bytes_written(), megabytes(1));
  EXPECT_GT(c.bytes_sent(), 0);
  EXPECT_LT(c.bytes_sent(), megabytes(1));  // 1 Mbit/s cannot move 1 MB in 1 s
  EXPECT_LE(c.bytes_acked(), c.bytes_sent());
  c.write(500);
  EXPECT_EQ(c.bytes_written(), megabytes(1) + 500);
}

TEST(TcpEdge, SteadyStateLossPathIsAllocationFree) {
  // A shallow bottleneck queue keeps this transfer in permanent loss
  // recovery: holes at the receiver (out-of-order tracker), fast
  // retransmit, RTO backoff, and a timer re-arm on every ack. After
  // warm-up, none of it may touch the allocator — the interval vector is
  // inline/pooled, timer re-arms reuse their event record, and packets
  // ride pooled link records.
  test::FnListeners listeners;
  Pair p(net::LinkSpec{Bandwidth::mbps(10.0), Duration::millis(1), 6'000});
  Bytes delivered = 0;
  p.b->listen(80, [&](TcpConnection& c) {
    auto& cbs = listeners.attach(c);
    cbs.data = [&](Bytes n) { delivered += n; };
  });
  TcpConnection& c = p.a->connect(p.b->id(), 80);
  c.write(megabytes(200));  // far more than the run can move: never drains
  p.run_for(5.0);  // warm-up: pools, rings, slabs, spill buffers
  ASSERT_TRUE(c.established());
  ASSERT_GT(c.retransmits(), 0) << "config no longer produces loss";
  const Bytes delivered_before = delivered;
#if SPEAKUP_AUDIT_ENABLED
  // Audit checkpoints may allocate scratch inside the measured region.
  GTEST_SKIP() << "zero-alloc guarantees are not measured in SPEAKUP_AUDIT builds";
#endif
  ASSERT_TRUE(util::AllocGuard::counting()) << "speakup_counted_new not linked";
  const util::AllocGuard guard;
  p.run_for(10.0);  // measured region: steady-state loss recovery
  EXPECT_EQ(guard.delta(), 0) << "TCP loss path allocated in steady state";
  EXPECT_GT(delivered, delivered_before);  // the region really moved data
  EXPECT_GT(c.retransmits(), 0);
}

// The network's connection slab at server scale. One host grows to 40 and
// then 4,096 live connections: every earlier TcpConnection& must stay valid
// (chunks never move), the slab must grow one chunk per ConnectionSlab::kChunk
// connections with nothing allocated per connection, and once warm the
// host must reopen a full house on recycled records without touching the
// allocator.
TEST(TcpEdge, HostSlabKeepsReferencesAndRecyclesSlots) {
  constexpr std::size_t kFew = 40;
  constexpr std::size_t kMany = 4096;
  // Nothing listens on b, so each SYN draws an RST that closes and releases
  // its connection; the deep queue keeps every SYN of a burst.
  Pair p(net::LinkSpec{Bandwidth::gbps(1.0), Duration::micros(10), 4'000'000});
  std::vector<TcpConnection*> conns;
  std::vector<std::uint32_t> ports;
  conns.reserve(kMany);
  ports.reserve(kMany);
  const auto open_until = [&](std::size_t n) {
    while (conns.size() < n) {
      conns.push_back(&p.a->connect(p.b->id(), 80));
      ports.push_back(conns.back()->local_port());
    }
  };
  const auto all_valid = [&] {
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (p.a->find_connection(ports[i], p.b->id(), 80) != conns[i]) return false;
      if (conns[i]->local_port() != ports[i] || conns[i]->closed()) return false;
    }
    return true;
  };

  open_until(kFew);
  ASSERT_TRUE(all_valid());
  const util::AllocGuard growth;
  open_until(kMany);
  const std::int64_t growth_allocs = growth.delta();
  EXPECT_EQ(p.a->live_connections(), kMany);
  EXPECT_TRUE(all_valid()) << "growing the slab moved a live connection";

  p.run_for(1.0);  // every SYN is answered by an RST
  EXPECT_EQ(p.a->live_connections(), 0u);
#if SPEAKUP_AUDIT_ENABLED
  // Audit checkpoints allocate scratch inside the measured regions.
  GTEST_SKIP() << "allocation counts are not measured in SPEAKUP_AUDIT builds";
#endif
  ASSERT_TRUE(util::AllocGuard::counting()) << "speakup_counted_new not linked";
  // One allocation per slab chunk. Every other growing vector on the path
  // (the slab's chunk list, demux table, event slab, timer pool) doubles,
  // so all of them together add a few dozen; per-host two-slot chunks would
  // add (kMany - kFew) / 2.
  const std::size_t chunks = ConnectionSlab::of(p.net).chunk_count();
  EXPECT_EQ(chunks, (kMany + ConnectionSlab::kChunk - 1) / ConnectionSlab::kChunk);
  EXPECT_LT(growth_allocs, static_cast<std::int64_t>(chunks + 128))
      << "the connection slab must grow by whole chunks";

  // One more full cycle brings the event loop's own pools to their
  // high-water mark; the cycle after it is the steady state.
  const auto reopen_all = [&] {
    conns.clear();
    ports.clear();
    open_until(kMany);
  };
  reopen_all();
  p.run_for(1.0);
  ASSERT_EQ(p.a->live_connections(), 0u);
  const util::AllocGuard reuse;
  reopen_all();
  EXPECT_EQ(reuse.delta(), 0) << "reopening on released slots allocated";
  EXPECT_EQ(p.a->live_connections(), kMany);
  EXPECT_TRUE(all_valid());
}

// The slab's size follows the network's peak of live connections, not the
// hosts that ever connected: 10^4 hosts each open a connection in turn, see
// it reset (nothing listens) and released, and the whole network never
// needs more than one record.
TEST(TcpEdge, SlabFollowsLiveConnectionsNotHosts) {
  constexpr int kHosts = 10'000;
  sim::EventLoop loop;
  net::Network net(loop);
  const net::Switch& sw = net.add_switch("sw");
  const Host& server = net.add_node<Host>("server");
  net.connect(server, sw, net::LinkSpec{Bandwidth::gbps(1.0), Duration::micros(10), 4'000'000});
  std::vector<Host*> hosts;
  hosts.reserve(kHosts);
  for (int i = 0; i < kHosts; ++i) {
    hosts.push_back(&net.add_node<Host>("c" + std::to_string(i)));
    net.connect(*hosts.back(), sw,
                net::LinkSpec{Bandwidth::mbps(2.0), Duration::micros(500), 48'000});
  }
  const ConnectionSlab& slab = ConnectionSlab::of(net);
  std::size_t max_chunks = 0;
  for (Host* h : hosts) {
    (void)h->connect(server.id(), 80);
    loop.run();  // SYN, RST, reset, deferred destroy
    ASSERT_EQ(h->live_connections(), 0u);
    max_chunks = std::max(max_chunks, slab.chunk_count());
  }
  EXPECT_EQ(max_chunks, 1u);
  EXPECT_EQ(slab.size(), 1u) << "one live connection at a time needs one record";
  EXPECT_EQ(slab.in_use(), 0u);
}

// A host destroyed while it holds one live connection and one waiting for
// its deferred destroy returns both records to the slab and cancels that
// destroy. The records are reused at once, so an event that still fired
// into the dead host would destroy a live connection (and, under ASan,
// read freed memory).
TEST(TcpEdge, DestroyedHostReturnsSlotsAndLeavesNoEvents) {
  Pair p(net::LinkSpec{Bandwidth::mbps(10.0), Duration::millis(1), 96'000});
  p.b->listen(80, [](TcpConnection&) {});
  // The network does not own this host, so the test can destroy it. It
  // borrows a's node id and routes; replies to it reach a, which holds no
  // connection on port 81 and ignores them.
  auto doomed = std::make_unique<Host>(p.net, p.a->id(), "doomed");
  (void)doomed->connect(p.b->id(), 81);         // live
  doomed->connect(p.b->id(), 81).abort();       // releasing: its destroy is pending
  const ConnectionSlab& slab = ConnectionSlab::of(p.net);
  ASSERT_EQ(slab.in_use(), 2u);
  ASSERT_EQ(doomed->live_connections(), 2u);

  doomed.reset();
  EXPECT_EQ(slab.in_use(), 0u) << "the dead host's records must return to the slab";
  TcpConnection& c1 = p.a->connect(p.b->id(), 80);  // reuse both records
  TcpConnection& c2 = p.a->connect(p.b->id(), 80);
  EXPECT_EQ(slab.size(), 2u);
  p.run_for(1.0);
  EXPECT_TRUE(c1.established());
  EXPECT_TRUE(c2.established());
  EXPECT_EQ(p.a->live_connections(), 2u);
  EXPECT_EQ(slab.in_use(), 4u);  // a's two and b's two accepted ones
}

TEST(TcpEdge, ZeroByteWriteIsNoop) {
  Pair p(net::LinkSpec{Bandwidth::mbps(2.0), Duration::millis(1), 96'000});
  p.b->listen(80, [](TcpConnection&) {});
  TcpConnection& c = p.a->connect(p.b->id(), 80);
  c.write(0);
  p.run_for(1.0);
  EXPECT_EQ(c.bytes_written(), 0);
  EXPECT_EQ(c.bytes_acked(), 0);
  EXPECT_TRUE(c.established());
}

TEST(TcpEdge, ManySmallWritesCoalesceIntoSegments) {
  test::FnListeners listeners;
  Pair p(net::LinkSpec{Bandwidth::mbps(10.0), Duration::millis(1), 96'000});
  Bytes delivered = 0;
  p.b->listen(80, [&](TcpConnection& c) {
    auto& cbs = listeners.attach(c);
    cbs.data = [&](Bytes n) { delivered += n; };
  });
  TcpConnection& c = p.a->connect(p.b->id(), 80);
  p.run_for(0.1);
  for (int i = 0; i < 1000; ++i) c.write(10);  // 10 KB in dribbles
  p.run_for(2.0);
  EXPECT_EQ(delivered, 10'000);
  // Far fewer than 1000 packets were needed (writes coalesce into MSS
  // segments once the first flight is in the air).
  EXPECT_LT(c.retransmits(), 5);
}

struct RateCase {
  const char* name;
  std::int64_t mbps;
};

class TcpThroughputSweep : public ::testing::TestWithParam<RateCase> {};

TEST_P(TcpThroughputSweep, BulkTransferUsesMostOfTheLink) {
  test::FnListeners listeners;
  const double rate = static_cast<double>(GetParam().mbps);
  Pair p(net::LinkSpec{Bandwidth::mbps(rate), Duration::millis(2), 96'000});
  Bytes delivered = 0;
  p.b->listen(80, [&](TcpConnection& c) {
    auto& cbs = listeners.attach(c);
    cbs.data = [&](Bytes n) { delivered += n; };
  });
  p.a->connect(p.b->id(), 80).write(megabytes(100));
  p.run_for(10.0);
  const double goodput_mbps = static_cast<double>(delivered) * 8 / 10.0 / 1e6;
  // At least 80% of the link after header overhead and slow start.
  EXPECT_GT(goodput_mbps, 0.8 * rate);
  EXPECT_LT(goodput_mbps, rate);  // and no faster than physics
}

INSTANTIATE_TEST_SUITE_P(Rates, TcpThroughputSweep,
                         ::testing::Values(RateCase{"one", 1}, RateCase{"two", 2},
                                           RateCase{"five", 5}, RateCase{"ten", 10},
                                           RateCase{"fifty", 50}),
                         [](const ::testing::TestParamInfo<RateCase>& i) {
                           return i.param.name;
                         });

}  // namespace
}  // namespace speakup::transport
