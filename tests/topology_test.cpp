// Topology-level behaviour: multi-hop paths, bottleneck sharing across many
// flows, and the §7.6/§7.7 network effects the evaluation depends on.
#include <gtest/gtest.h>

#include <vector>

#include "client/file_transfer.hpp"
#include "exp/experiment.hpp"
#include "net/network.hpp"
#include "sim/event_loop.hpp"
#include "tcp_test_listener.hpp"
#include "transport/host.hpp"

namespace speakup {
namespace {

TEST(Topology, ManyFlowsFillASharedBottleneck) {
  // 8 senders through a 4 Mbit/s bottleneck: aggregate goodput approaches
  // the link rate even though each flow's share is small.
  transport::test::FnListeners listeners;
  sim::EventLoop loop;
  net::Network net(loop);
  auto& sw = net.add_switch("sw");
  auto& sink_sw = net.add_switch("sink-sw");
  auto& sink = net.add_node<transport::Host>("sink");
  net.connect(sw, sink_sw, net::LinkSpec{Bandwidth::mbps(4.0), Duration::millis(5), 50'000});
  net.connect(sink, sink_sw,
              net::LinkSpec{Bandwidth::mbps(100.0), Duration::micros(100), 1'000'000});
  std::vector<transport::Host*> senders;
  for (int i = 0; i < 8; ++i) {
    auto& h = net.add_node<transport::Host>("h" + std::to_string(i));
    net.connect(h, sw, net::LinkSpec{Bandwidth::mbps(2.0), Duration::millis(1), 48'000});
    senders.push_back(&h);
  }
  net.build_routes();
  Bytes delivered = 0;
  sink.listen(80, [&](transport::TcpConnection& c) {
    auto& cbs = listeners.attach(c);
    cbs.data = [&](Bytes n) { delivered += n; };
  });
  for (auto* h : senders) h->connect(sink.id(), 80).write(megabytes(50));
  loop.run_until(SimTime::zero() + Duration::seconds(30.0));
  const double mbps = static_cast<double>(delivered) * 8 / 30.0 / 1e6;
  EXPECT_GT(mbps, 3.0);
  EXPECT_LT(mbps, 4.0);
}

TEST(Topology, UplinkSaturationDelaysUnrelatedControlTraffic) {
  // The §7.7 mechanism in miniature: one host saturates the uplink of a
  // shared 1 Mbit/s link; another host's tiny request-response exchange
  // across the same uplink inflates dramatically.
  sim::EventLoop loop;
  net::Network net(loop);
  auto& near_sw = net.add_switch("near");
  auto& far_sw = net.add_switch("far");
  net.connect(near_sw, far_sw,
              net::LinkSpec{Bandwidth::mbps(1.0), Duration::millis(100), 100'000});
  auto& hog = net.add_node<transport::Host>("hog");
  auto& mouse = net.add_node<transport::Host>("mouse");
  auto& server = net.add_node<transport::Host>("server");
  net.connect(hog, near_sw, net::LinkSpec{Bandwidth::mbps(2.0), Duration::micros(500), 48'000});
  net.connect(mouse, near_sw,
              net::LinkSpec{Bandwidth::mbps(2.0), Duration::micros(500), 48'000});
  net.connect(server, far_sw,
              net::LinkSpec{Bandwidth::mbps(100.0), Duration::micros(500), 1'000'000});
  net.build_routes();
  client::StaticFileServer files(server);

  auto measure = [&](bool hog_active) {
    if (hog_active) {
      server.listen(90, [](transport::TcpConnection&) {});
      hog.connect(server.id(), 90).write(megabytes(100));
      loop.run_until(loop.now() + Duration::seconds(5.0));  // fill the queue
    }
    client::FileTransferClient::Config fc;
    fc.server = server.id();
    fc.file_size = kilobytes(1);
    fc.count = 10;
    client::FileTransferClient dl(mouse, fc);
    dl.start();
    loop.run_until(loop.now() + Duration::seconds(60.0));
    return dl.latencies().mean();
  };

  const double quiet = measure(false);
  const double crowded = measure(true);
  EXPECT_GT(quiet, 0.0);
  EXPECT_GT(crowded, quiet * 2.0);
}

TEST(Topology, ExperimentRunsStarTopologyAtPaperScale) {
  // 50 clients (the paper's count) at 60 s: a smoke test that the full
  // experiment machinery holds up at evaluation scale.
  exp::ScenarioConfig cfg = exp::lan_scenario(25, 25, 100.0, "auction", /*seed=*/61);
  cfg.duration = Duration::seconds(20.0);
  const exp::ExperimentResult r = exp::run_scenario(cfg);
  EXPECT_GT(r.served_total, 1500);           // ~c * duration
  EXPECT_LT(r.served_total, 2100);
  EXPECT_GT(r.events_executed, 100'000u);
  EXPECT_EQ(r.groups.size(), 2u);
}

TEST(Topology, CollateralBaselineMatchesPathPhysics) {
  // Downloader alone across the §7.7 bottleneck: 1 KB download needs
  // SYN/SYN-ACK (1 RTT) + request/response (1 RTT) over a ~0.41 s RTT path.
  exp::ScenarioConfig cfg;
  cfg.defense = "auction";
  cfg.capacity_rps = 2.0;
  cfg.seed = 62;
  cfg.duration = Duration::seconds(120.0);
  cfg.bottleneck = exp::BottleneckSpec{Bandwidth::mbps(1.0), Duration::millis(100), 100'000};
  exp::CollateralSpec col;
  col.file_size = kilobytes(1);
  col.downloads = 20;
  cfg.collateral = col;
  const exp::ExperimentResult r = exp::run_scenario(cfg);
  ASSERT_EQ(r.collateral_latencies.count(), 20u);
  EXPECT_GT(r.collateral_latencies.mean(), 0.38);
  EXPECT_LT(r.collateral_latencies.mean(), 0.55);
  EXPECT_EQ(r.collateral_failures, 0);
}

TEST(Topology, AsymmetricDuplexCarriesAcksUnimpeded) {
  // Data a->b at 1 Mbit/s with a fat reverse channel: ACKs never queue, so
  // goodput matches the forward rate.
  transport::test::FnListeners listeners;
  sim::EventLoop loop;
  net::Network net(loop);
  auto& a = net.add_node<transport::Host>("a");
  auto& b = net.add_node<transport::Host>("b");
  net.connect(a, b, net::LinkSpec{Bandwidth::mbps(1.0), Duration::millis(5), 48'000},
              net::LinkSpec{Bandwidth::mbps(50.0), Duration::millis(5), 48'000});
  net.build_routes();
  Bytes delivered = 0;
  b.listen(80, [&](transport::TcpConnection& c) {
    auto& cbs = listeners.attach(c);
    cbs.data = [&](Bytes n) { delivered += n; };
  });
  a.connect(b.id(), 80).write(megabytes(3));
  loop.run_until(SimTime::zero() + Duration::seconds(20.0));
  EXPECT_GT(static_cast<double>(delivered) * 8 / 20.0 / 1e6, 0.85);
}

}  // namespace
}  // namespace speakup
