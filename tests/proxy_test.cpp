// Tests for the §9 payment proxy: relaying, paying on behalf of clients,
// and the bandwidth-envy cure end to end.
#include <gtest/gtest.h>

#include "client/client_pool.hpp"
#include "client/payment_proxy.hpp"
#include "core/auction_thinner.hpp"
#include "exp/experiment.hpp"
#include "net/network.hpp"
#include "transport/host.hpp"

namespace speakup::client {
namespace {

struct ProxyRig {
  ProxyRig() : net(loop) {
    sw = &net.add_switch("sw");
    thinner_host = &net.add_node<transport::Host>("thinner");
    net.connect(*thinner_host, *sw,
                net::LinkSpec{Bandwidth::gbps(1.0), Duration::micros(500), 4'000'000});
    proxy_host = &net.add_node<transport::Host>("proxy");
    net.connect(*proxy_host, *sw,
                net::LinkSpec{Bandwidth::mbps(20.0), Duration::micros(500), 96'000});
  }
  void run_for(double sec) { loop.run_until(loop.now() + Duration::seconds(sec)); }

  sim::EventLoop loop;
  net::Network net;
  net::Switch* sw = nullptr;
  transport::Host* thinner_host = nullptr;
  transport::Host* proxy_host = nullptr;
};

TEST(PaymentProxy, RelaysRequestAndResponseOnIdleServer) {
  ProxyRig rig;
  core::FrontEndConfig tc;
  tc.capacity_rps = 50.0;
  core::AuctionThinner thinner(*rig.thinner_host, tc, util::RngStream(1, "srv"));
  PaymentProxy::Config pc;
  pc.thinner = rig.thinner_host->id();
  PaymentProxy proxy(*rig.proxy_host, pc);

  auto& ch = rig.net.add_node<transport::Host>("client");
  rig.net.connect(ch, *rig.sw,
                  net::LinkSpec{Bandwidth::mbps(0.5), Duration::micros(500), 48'000});
  ClientPool c(rig.loop, rig.proxy_host->id(), good_client_params(), 0);
  c.add_member(ch, util::RngStream(1, "c"));
  c.start_all();
  rig.run_for(10.0);
  EXPECT_GT(c.stats(0).served, 5);
  EXPECT_EQ(c.stats(0).denied, 0);
  EXPECT_EQ(proxy.relayed_requests(), c.stats(0).started);
  EXPECT_EQ(proxy.relayed_responses(), c.stats(0).served);
  // Idle server: nobody was asked to pay.
  EXPECT_EQ(proxy.payments_started(), 0);
}

TEST(PaymentProxy, PaysOnBehalfOfClientsUnderLoad) {
  ProxyRig rig;
  core::FrontEndConfig tc;
  tc.capacity_rps = 1.0;  // slow server forces payment
  core::AuctionThinner thinner(*rig.thinner_host, tc, util::RngStream(1, "srv"));
  PaymentProxy::Config pc;
  pc.thinner = rig.thinner_host->id();
  PaymentProxy proxy(*rig.proxy_host, pc);

  // Two proxied clients with negligible bandwidth of their own.
  WorkloadParams p = good_client_params();
  p.lambda = 0.5;
  ClientPool clients(rig.loop, rig.proxy_host->id(), p, 0);
  for (int i = 0; i < 2; ++i) {
    auto& ch = rig.net.add_node<transport::Host>("client" + std::to_string(i));
    rig.net.connect(ch, *rig.sw,
                    net::LinkSpec{Bandwidth::kbps(128), Duration::micros(500), 48'000});
    clients.add_member(ch, util::RngStream(1, "c" + std::to_string(i)));
  }
  clients.start_all();
  rig.run_for(30.0);
  EXPECT_GT(proxy.payments_started(), 0);
  std::int64_t served = 0;
  for (std::uint32_t i = 0; i < clients.size(); ++i) served += clients.stats(i).served;
  EXPECT_GT(served, 5);
  // The proxy paid real bytes into the thinner.
  EXPECT_GT(thinner.stats().payment_bytes_total, kilobytes(100));
}

TEST(PaymentProxy, ExperimentValidatesConfig) {
  exp::ScenarioConfig cfg = exp::lan_scenario(2, 0, 10.0, "auction", 1);
  cfg.duration = Duration::seconds(5.0);
  cfg.groups[0].via_proxy = true;  // no proxy configured
  EXPECT_THROW(exp::Experiment{cfg}, std::invalid_argument);
}

TEST(PaymentProxy, CuresBandwidthEnvyEndToEnd) {
  // Thin clients vs bots: without the proxy they starve; with it they are
  // served at the proxy's bandwidth, not their own.
  auto build = [](bool with_proxy) {
    exp::ScenarioConfig cfg;
    cfg.defense = "auction";
    cfg.capacity_rps = 20.0;
    cfg.seed = 17;
    cfg.duration = Duration::seconds(30.0);
    exp::ClientGroupSpec thin;
    thin.label = "thin";
    thin.count = 5;
    thin.workload = good_client_params();
    thin.access_bw = Bandwidth::mbps(0.25);
    thin.via_proxy = with_proxy;
    cfg.groups.push_back(thin);
    exp::ClientGroupSpec bots;
    bots.label = "bots";
    bots.count = 5;
    bots.workload = bad_client_params();
    cfg.groups.push_back(bots);
    if (with_proxy) cfg.proxy = exp::ProxySpec{Bandwidth::mbps(20.0)};
    return cfg;
  };
  const exp::ExperimentResult without = exp::run_scenario(build(false));
  const exp::ExperimentResult with = exp::run_scenario(build(true));
  EXPECT_GT(with.fraction_good_served, without.fraction_good_served * 1.5);
  EXPECT_GT(with.fraction_good_served, 0.8);
}

TEST(PaymentProxy, ClientAbandonmentCleansUpRelay) {
  ProxyRig rig;
  core::FrontEndConfig tc;
  tc.capacity_rps = 0.1;  // nobody gets served quickly
  core::AuctionThinner thinner(*rig.thinner_host, tc, util::RngStream(1, "srv"));
  PaymentProxy::Config pc;
  pc.thinner = rig.thinner_host->id();
  PaymentProxy proxy(*rig.proxy_host, pc);

  auto& ch = rig.net.add_node<transport::Host>("client");
  rig.net.connect(ch, *rig.sw,
                  net::LinkSpec{Bandwidth::mbps(1.0), Duration::micros(500), 48'000});
  WorkloadParams p = good_client_params();
  p.lambda = 0.2;
  p.request_timeout = Duration::seconds(3.0);  // impatient client
  ClientPool c(rig.loop, rig.proxy_host->id(), p, 0);
  c.add_member(ch, util::RngStream(1, "c"));
  c.start_all();
  rig.run_for(30.0);
  EXPECT_GT(c.stats(0).denied, 0);       // client gave up on some requests
  EXPECT_LE(proxy.pending(), 2u);       // relays were torn down, not leaked
}

}  // namespace
}  // namespace speakup::client
