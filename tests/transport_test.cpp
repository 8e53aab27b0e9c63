// Tests for the Reno-style TCP model: handshake, bulk transfer throughput,
// slow start, loss recovery, RTO behaviour, fairness, and the
// parallel-connection advantage the paper's §3.4/§4.2 discussion relies on.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/event_loop.hpp"
#include "tcp_test_listener.hpp"
#include "transport/host.hpp"

namespace speakup::transport {
namespace {

struct TwoHostNet {
  explicit TwoHostNet(const net::LinkSpec& spec) : net(loop) {
    a = &net.add_node<Host>("a");
    b = &net.add_node<Host>("b");
    net.connect(*a, *b, spec);
    net.build_routes();
  }
  sim::EventLoop loop;
  net::Network net;
  Host* a = nullptr;
  Host* b = nullptr;
};

constexpr net::LinkSpec kLan{Bandwidth::mbps(2.0), Duration::millis(1), 96'000};

TEST(Tcp, HandshakeEstablishesBothEnds) {
  test::FnListeners listeners;
  TwoHostNet t(kLan);
  TcpConnection* accepted = nullptr;
  t.b->listen(80, [&](TcpConnection& c) { accepted = &c; });
  bool established = false;
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  auto& cbs = listeners.attach(c);
  cbs.established = [&] { established = true; };
  t.loop.run_until(SimTime::zero() + Duration::seconds(1.0));
  EXPECT_TRUE(established);
  ASSERT_NE(accepted, nullptr);
  EXPECT_TRUE(c.established());
  EXPECT_TRUE(accepted->established());
  EXPECT_EQ(c.peer(), accepted);
  EXPECT_EQ(accepted->peer(), &c);
}

TEST(Tcp, HandshakeTakesOneRtt) {
  test::FnListeners listeners;
  TwoHostNet t(kLan);
  t.b->listen(80, [](TcpConnection&) {});
  SimTime established_at;
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  auto& cbs = listeners.attach(c);
  cbs.established = [&] { established_at = t.loop.now(); };
  t.loop.run_until(SimTime::zero() + Duration::seconds(1.0));
  // SYN + SYN-ACK, each 1 ms propagation + tiny serialization.
  EXPECT_GE(established_at.ns(), Duration::millis(2).ns());
  EXPECT_LE(established_at.ns(), Duration::millis(3).ns());
}

TEST(Tcp, ConnectionToNonListeningPortResets) {
  test::FnListeners listeners;
  TwoHostNet t(kLan);
  bool reset = false;
  TcpConnection& c = t.a->connect(t.b->id(), 4242);
  auto& cbs = listeners.attach(c);
  cbs.reset = [&] { reset = true; };
  t.loop.run_until(SimTime::zero() + Duration::seconds(1.0));
  EXPECT_TRUE(reset);
}

/// Transfers `n` bytes a->b and returns the completion time (seconds).
double transfer_time(const net::LinkSpec& spec, Bytes n) {
  test::FnListeners listeners;
  TwoHostNet t(spec);
  Bytes delivered = 0;
  SimTime done_at;
  t.b->listen(80, [&](TcpConnection& c) {
    auto& cbs = listeners.attach(c);
    cbs.data = [&, n](Bytes newly) {
      delivered += newly;
      if (delivered >= n) done_at = t.net.loop().now();
    };
  });
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  c.write(n);
  t.loop.run_until(SimTime::zero() + Duration::seconds(120.0));
  EXPECT_EQ(delivered, n);
  return done_at.sec();
}

TEST(Tcp, BulkTransferApproachesLinkRate) {
  // 2 Mbit/s link, 1 MByte payload: ideal goodput-limited time is
  // 1e6*8/2e6 = 4 s; headers add ~3%; slow start adds a little.
  const double sec = transfer_time(kLan, megabytes(1));
  EXPECT_GT(sec, 4.0);
  EXPECT_LT(sec, 5.0);
}

TEST(Tcp, ThroughputScalesWithBandwidth) {
  const double slow = transfer_time(kLan, kilobytes(500));
  const double fast =
      transfer_time(net::LinkSpec{Bandwidth::mbps(8.0), Duration::millis(1), 96'000},
                    kilobytes(500));
  EXPECT_GT(slow / fast, 3.0);  // 4x bandwidth -> ~4x faster (minus slow start)
}

TEST(Tcp, SlowStartDoublesPerRtt) {
  // With a 100 ms RTT and an initial window of 2 MSS, delivered bytes
  // should roughly double each RTT during slow start.
  test::FnListeners listeners;
  TwoHostNet t(net::LinkSpec{Bandwidth::mbps(100.0), Duration::millis(50), 1'000'000});
  Bytes delivered = 0;
  t.b->listen(80, [&](TcpConnection& c) {
    auto& cbs = listeners.attach(c);
    cbs.data = [&](Bytes newly) { delivered += newly; };
  });
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  c.write(megabytes(4));
  // Handshake completes at ~100 ms and the first flight lands at ~150 ms;
  // sample mid-round (175 ms, 275 ms, ...) and compare per-round deltas.
  std::vector<Bytes> deltas;
  Bytes prev = 0;
  for (int i = 0; i < 4; ++i) {
    t.loop.run_until(SimTime::zero() + Duration::millis(175 + 100 * i));
    deltas.push_back(delivered - prev);
    prev = delivered;
  }
  ASSERT_GT(deltas[0], 0);
  for (std::size_t i = 1; i < deltas.size(); ++i) {
    ASSERT_GT(deltas[i - 1], 0);
    const double ratio =
        static_cast<double>(deltas[i]) / static_cast<double>(deltas[i - 1]);
    EXPECT_GT(ratio, 1.5) << "slow-start round " << i << " did not ~double";
    EXPECT_LT(ratio, 3.0) << "slow-start round " << i << " grew implausibly fast";
  }
}

TEST(Tcp, SmallMessageNeedsNoFullMss) {
  // 200 bytes should arrive as a single sub-MSS segment quickly.
  test::FnListeners listeners;
  TwoHostNet t(kLan);
  Bytes delivered = 0;
  t.b->listen(80, [&](TcpConnection& c) {
    auto& cbs = listeners.attach(c);
    cbs.data = [&](Bytes newly) { delivered += newly; };
  });
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  c.write(200);
  t.loop.run_until(SimTime::zero() + Duration::millis(10));
  EXPECT_EQ(delivered, 200);
}

// Every client host carries connection slots, so the object's size is a
// per-client memory cost at 10^5-client scale (docs/performance.md).
static_assert(sizeof(TcpConnection) <= 416, "TcpConnection grew past its memory budget");
// Every client host is a Host; its connections live in the network's slab,
// its TCP config is the shared default and its listeners sit out of line,
// so the object itself holds only the demux table's pointer and two 32-bit
// counts and a few scalars (plus an audit countdown in SPEAKUP_AUDIT
// builds). An inline listener map (+40 B) or a vector-plus-size_t table
// header (+16 B) breaks it.
static_assert(sizeof(Host) <= (SPEAKUP_AUDIT_ENABLED ? 112 : 104),
              "Host grew past its memory budget");

TEST(Tcp, ConfigIsFrozenWhileConnectionsLive) {
  TwoHostNet t(kLan);
  t.b->listen(80, [](TcpConnection&) {});
  TcpConfig cfg;
  cfg.mss = 536;
  t.a->set_tcp_config(cfg);  // no connections yet: accepted
  EXPECT_EQ(t.a->tcp_config().mss, 536);
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  cfg.mss = 1000;
  try {
    t.a->set_tcp_config(cfg);
    FAIL() << "set_tcp_config must refuse while connections live";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("host a"), std::string::npos) << e.what();
  }
  EXPECT_EQ(t.a->tcp_config().mss, 536);
  // Once the host holds no connection again, the config may change.
  c.abort();
  t.loop.run_until(SimTime::zero() + Duration::seconds(1.0));
  ASSERT_EQ(t.a->live_connections(), 0u);
  t.a->set_tcp_config(cfg);
  EXPECT_EQ(t.a->tcp_config().mss, 1000);
}

TEST(Tcp, OnAckedReportsProgress) {
  test::FnListeners listeners;
  TwoHostNet t(kLan);
  t.b->listen(80, [](TcpConnection&) {});
  Bytes acked = 0;
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  auto& cbs = listeners.attach(c);
  cbs.acked = [&](Bytes total) { acked = total; };
  c.write(10'000);
  t.loop.run_until(SimTime::zero() + Duration::seconds(2.0));
  EXPECT_EQ(acked, 10'000);
  EXPECT_EQ(c.bytes_acked(), 10'000);
}

TEST(Tcp, RecoversFromLossThroughTightQueue) {
  // A queue of only 3 packets forces drops during slow start; the transfer
  // must still complete (fast retransmit / RTO).
  const double sec =
      transfer_time(net::LinkSpec{Bandwidth::mbps(2.0), Duration::millis(10), 3 * 1500},
                    kilobytes(300));
  EXPECT_GT(sec, 1.2);   // 300 KB at 2 Mbit/s is at least 1.2 s
  EXPECT_LT(sec, 30.0);  // and loss must not stall it forever
}

TEST(Tcp, RetransmitsAreCounted) {
  TwoHostNet t(net::LinkSpec{Bandwidth::mbps(2.0), Duration::millis(10), 3 * 1500});
  t.b->listen(80, [](TcpConnection&) {});
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  c.write(kilobytes(300));
  t.loop.run_until(SimTime::zero() + Duration::seconds(60.0));
  EXPECT_GT(c.retransmits(), 0);
  EXPECT_EQ(c.bytes_acked(), kilobytes(300));
}

TEST(Tcp, SrttApproximatesPathRtt) {
  TwoHostNet t(net::LinkSpec{Bandwidth::mbps(10.0), Duration::millis(40), 1'000'000});
  t.b->listen(80, [](TcpConnection&) {});
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  c.write(kilobytes(100));
  t.loop.run_until(SimTime::zero() + Duration::seconds(5.0));
  // Path RTT is 80 ms + serialization; SRTT should land nearby.
  EXPECT_GT(c.srtt().ms(), 60.0);
  EXPECT_LT(c.srtt().ms(), 160.0);
}

TEST(Tcp, AbortSendsRstToPeer) {
  test::FnListeners listeners;
  TwoHostNet t(kLan);
  TcpConnection* accepted = nullptr;
  t.b->listen(80, [&](TcpConnection& c) { accepted = &c; });
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  t.loop.run_until(SimTime::zero() + Duration::millis(100));
  ASSERT_NE(accepted, nullptr);
  bool peer_reset = false;
  auto& cbs = listeners.attach(*accepted);
  cbs.reset = [&] { peer_reset = true; };
  c.abort();
  EXPECT_TRUE(c.closed());
  t.loop.run_until(SimTime::zero() + Duration::millis(200));
  EXPECT_TRUE(peer_reset);
  EXPECT_EQ(c.peer(), nullptr);
}

TEST(Tcp, WriteAfterAbortIsIgnored) {
  TwoHostNet t(kLan);
  t.b->listen(80, [](TcpConnection&) {});
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  t.loop.run_until(SimTime::zero() + Duration::millis(100));
  c.abort();
  c.write(1000);  // must not crash or send
  t.loop.run_until(SimTime::zero() + Duration::millis(200));
  EXPECT_EQ(c.bytes_acked(), 0);
}

TEST(Tcp, SynLossRecoversViaRto) {
  // Drop the first SYN by using a zero-capacity... not possible; instead use
  // a queue fitting nothing beyond the in-flight packet and pre-fill the
  // link with a dummy transfer so the SYN is dropped.
  test::FnListeners listeners;
  TwoHostNet t(net::LinkSpec{Bandwidth::kbps(64), Duration::millis(1), 100});
  t.b->listen(80, [](TcpConnection&) {});
  // Saturate the a->b direction so some control packets drop.
  TcpConnection& filler = t.a->connect(t.b->id(), 80);
  filler.write(kilobytes(50));
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  bool established = false;
  auto& cbs = listeners.attach(c);
  cbs.established = [&] { established = true; };
  t.loop.run_until(SimTime::zero() + Duration::seconds(60.0));
  EXPECT_TRUE(established);  // SYN retries eventually get through
}

TEST(Tcp, TwoFlowsShareBottleneckFairly) {
  // Two hosts behind a shared 2 Mbit/s bottleneck send to the same sink;
  // long-run throughputs should be within 2x of each other.
  test::FnListeners listeners;
  sim::EventLoop loop;
  net::Network net(loop);
  auto& h1 = net.add_node<Host>("h1");
  auto& h2 = net.add_node<Host>("h2");
  auto& sw = net.add_switch("sw");
  auto& sink = net.add_node<Host>("sink");
  const net::LinkSpec access{Bandwidth::mbps(10.0), Duration::millis(1), 96'000};
  net.connect(h1, sw, access);
  net.connect(h2, sw, access);
  net.connect(sw, sink, net::LinkSpec{Bandwidth::mbps(2.0), Duration::millis(5), 30'000});
  net.build_routes();
  Bytes d1 = 0;
  Bytes d2 = 0;
  sink.listen(80, [&](TcpConnection& c) {
    const auto remote = c.remote_node();
    auto& cbs = listeners.attach(c);
    cbs.data = [&, remote](Bytes n) { (remote == h1.id() ? d1 : d2) += n; };
  });
  h1.connect(sink.id(), 80).write(megabytes(100));
  h2.connect(sink.id(), 80).write(megabytes(100));
  loop.run_until(SimTime::zero() + Duration::seconds(60.0));
  ASSERT_GT(d1, 0);
  ASSERT_GT(d2, 0);
  const double ratio = static_cast<double>(d1) / static_cast<double>(d2);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
  // Combined goodput should be near link rate: >= 70% of 2 Mbit/s over 60 s.
  EXPECT_GT(d1 + d2, static_cast<Bytes>(0.7 * 2e6 / 8 * 60));
}

TEST(Tcp, ParallelConnectionsGrabLargerShare) {
  // One host opens 5 connections, the other 1, across a shared bottleneck:
  // the 5-connection host should get roughly 5x the bandwidth (§4.2's
  // n/(n+1) argument). Accept anything clearly above 2x.
  test::FnListeners listeners;
  sim::EventLoop loop;
  net::Network net(loop);
  auto& greedy = net.add_node<Host>("greedy");
  auto& meek = net.add_node<Host>("meek");
  auto& sw = net.add_switch("sw");
  auto& sink = net.add_node<Host>("sink");
  const net::LinkSpec access{Bandwidth::mbps(10.0), Duration::millis(1), 96'000};
  net.connect(greedy, sw, access);
  net.connect(meek, sw, access);
  net.connect(sw, sink, net::LinkSpec{Bandwidth::mbps(2.0), Duration::millis(5), 30'000});
  net.build_routes();
  Bytes dg = 0;
  Bytes dm = 0;
  sink.listen(80, [&](TcpConnection& c) {
    const auto remote = c.remote_node();
    auto& cbs = listeners.attach(c);
    cbs.data = [&, remote](Bytes n) { (remote == greedy.id() ? dg : dm) += n; };
  });
  for (int i = 0; i < 5; ++i) greedy.connect(sink.id(), 80).write(megabytes(100));
  meek.connect(sink.id(), 80).write(megabytes(100));
  loop.run_until(SimTime::zero() + Duration::seconds(60.0));
  ASSERT_GT(dm, 0);
  EXPECT_GT(static_cast<double>(dg) / static_cast<double>(dm), 2.0);
}

TEST(Host, PortAllocationIsUnique) {
  TwoHostNet t(kLan);
  t.b->listen(80, [](TcpConnection&) {});
  TcpConnection& c1 = t.a->connect(t.b->id(), 80);
  TcpConnection& c2 = t.a->connect(t.b->id(), 80);
  EXPECT_NE(c1.local_port(), c2.local_port());
}

TEST(Host, ConnectionsAreReapedAfterClose) {
  TwoHostNet t(kLan);
  t.b->listen(80, [](TcpConnection&) {});
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  t.loop.run_until(SimTime::zero() + Duration::millis(100));
  EXPECT_GE(t.a->live_connections(), 1u);
  c.abort();
  t.loop.run_until(SimTime::zero() + Duration::millis(300));
  EXPECT_EQ(t.a->live_connections(), 0u);
  EXPECT_EQ(t.b->live_connections(), 0u);
}

TEST(Host, ConnectionsCreatedCounter) {
  TwoHostNet t(kLan);
  t.b->listen(80, [](TcpConnection&) {});
  t.a->connect(t.b->id(), 80);
  t.a->connect(t.b->id(), 80);
  t.loop.run_until(SimTime::zero() + Duration::millis(50));
  EXPECT_EQ(t.a->connections_created(), 2);
  EXPECT_EQ(t.b->connections_created(), 2);  // two accepted
}

TEST(Host, DuplicateListenerRejected) {
  TwoHostNet t(kLan);
  t.b->listen(80, [](TcpConnection&) {});
  EXPECT_THROW(t.b->listen(80, [](TcpConnection&) {}), std::invalid_argument);
}

}  // namespace
}  // namespace speakup::transport
