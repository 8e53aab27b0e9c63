// Edge cases and property sweeps for the workload client (ClientPool):
// difficulty propagation, POST-size configuration, retry pipelining bounds,
// and demand scaling with lambda/window. Pause semantics live in
// client_pool_test.
#include <gtest/gtest.h>

#include "client/client_pool.hpp"
#include "core/auction_thinner.hpp"
#include "core/quantum_thinner.hpp"
#include "core/retry_thinner.hpp"
#include "net/network.hpp"
#include "sim/event_loop.hpp"
#include "transport/host.hpp"
#include "util/rng.hpp"

namespace speakup::client {
namespace {

struct Rig {
  Rig() : net(loop) {
    sw = &net.add_switch("sw");
    thinner_host = &net.add_node<transport::Host>("thinner");
    net.connect(*thinner_host, *sw,
                net::LinkSpec{Bandwidth::gbps(1.0), Duration::micros(500), 4'000'000});
  }
  transport::Host& add_host(const std::string& name,
                            Bandwidth bw = Bandwidth::mbps(2.0)) {
    auto& h = net.add_node<transport::Host>(name);
    net.connect(h, *sw, net::LinkSpec{bw, Duration::micros(500), 48'000});
    return h;
  }
  void run_for(double sec) { loop.run_until(loop.now() + Duration::seconds(sec)); }
  sim::EventLoop loop;
  net::Network net;
  net::Switch* sw = nullptr;
  transport::Host* thinner_host = nullptr;
};

TEST(WorkloadEdge, DifficultyReachesTheServer) {
  // A difficulty-5 client against a quantum thinner: the served request
  // consumes ~5x the base service time of good busy time.
  Rig rig;
  core::FrontEndConfig tc;
  tc.capacity_rps = 10.0;  // base quantum ~0.1 s
  core::QuantumAuctionThinner thinner(*rig.thinner_host, tc, util::RngStream(1, "srv"));
  auto& h = rig.add_host("c");
  WorkloadParams p = good_client_params();
  p.lambda = 0.2;  // one request, roughly
  p.difficulty = 5;
  ClientPool c(rig.loop, rig.thinner_host->id(), p, 0);
  c.add_member(h, util::RngStream(1, "c"));
  c.start_all();
  rig.run_for(20.0);
  ASSERT_GT(c.stats(0).served, 0);
  const double per_request =
      thinner.server().good_busy_time().sec() / static_cast<double>(c.stats(0).served);
  EXPECT_GT(per_request, 0.4);  // ~5 * 0.1 s, with U[0.9,1.1] jitter
  EXPECT_LT(per_request, 0.6);
}

TEST(WorkloadEdge, PostSizeControlsChannelChurn) {
  // Tiny POSTs force many channel rotations per payment; the thinner's
  // kPostContinue count shows up as extra connections from the client host.
  Rig rig;
  core::FrontEndConfig tc;
  tc.capacity_rps = 0.5;  // ~2 s services force sustained payment
  core::AuctionThinner thinner(*rig.thinner_host, tc, util::RngStream(1, "srv"));
  std::int64_t conns[2] = {0, 0};
  int i = 0;
  for (const Bytes post : {megabytes(1), kilobytes(20)}) {
    auto& h = rig.add_host("c" + std::to_string(i), Bandwidth::mbps(4.0));
    auto& h2 = rig.add_host("rival" + std::to_string(i), Bandwidth::mbps(4.0));
    WorkloadParams p = good_client_params();
    p.post_size = post;
    // Member 0 is the measured client, member 1 its rival.
    ClientPool clients(rig.loop, rig.thinner_host->id(), p, static_cast<std::uint32_t>(2 * i));
    clients.add_member(h, util::RngStream(1, "c" + std::to_string(i)));
    clients.add_member(h2, util::RngStream(1, "r" + std::to_string(i)));
    clients.start_all();
    rig.run_for(15.0);
    clients.pause(0);
    clients.pause(1);
    conns[i] = h.connections_created();
    rig.run_for(5.0);
    ++i;
  }
  // Small POSTs -> markedly more connections (one per POST rotation).
  EXPECT_GT(conns[1], conns[0] * 2);
}

TEST(WorkloadEdge, RetryPipelineStaysBounded) {
  Rig rig;
  core::FrontEndConfig tc;
  tc.capacity_rps = 0.2;  // nobody gets served for a long time
  core::RetryThinner thinner(*rig.thinner_host, tc, util::RngStream(1, "srv"));
  auto& filler_host = rig.add_host("filler");
  WorkloadParams fp = good_client_params();
  fp.lambda = 5.0;
  ClientPool filler(rig.loop, rig.thinner_host->id(), fp, 0);
  filler.add_member(filler_host, util::RngStream(1, "filler"));
  filler.start_all();
  auto& h = rig.add_host("c");
  WorkloadParams p = good_client_params();
  p.lambda = 1.0;
  p.retry_pipeline = 16;
  ClientPool c(rig.loop, rig.thinner_host->id(), p, 1);
  c.add_member(h, util::RngStream(1, "c"));
  c.start_all();
  rig.run_for(20.0);
  // §3.2: the client streams retries continuously, paced by TCP — so the
  // count approaches (but cannot exceed) the access link's capacity of
  // ~1785 messages/s (2 Mbit/s over 140-byte wire messages).
  EXPECT_GT(c.stats(0).retries_sent, 1'000);
  EXPECT_LT(c.stats(0).retries_sent, static_cast<std::int64_t>(20.0 * 1'900));
}

struct DemandCase {
  const char* name;
  double lambda;
  int window;
};

class DemandScaling : public ::testing::TestWithParam<DemandCase> {};

TEST_P(DemandScaling, ArrivalsTrackLambdaAndWindowCapsOutstanding) {
  Rig rig;
  // Thinner that never replies: outstanding requests pile up to the window.
  rig.thinner_host->listen(80, [](transport::TcpConnection&) {});
  auto& h = rig.add_host("c");
  WorkloadParams p;
  p.lambda = GetParam().lambda;
  p.window = GetParam().window;
  p.cls = http::ClientClass::kGood;
  ClientPool c(rig.loop, rig.thinner_host->id(), p, 0);
  c.add_member(h, util::RngStream(9, GetParam().name));
  c.start_all();
  rig.run_for(30.0);
  EXPECT_NEAR(static_cast<double>(c.stats(0).arrivals), 30.0 * p.lambda,
              5 * std::sqrt(30.0 * p.lambda) + 1);
  EXPECT_LE(c.outstanding(0), static_cast<std::size_t>(p.window));
  EXPECT_EQ(c.stats(0).started,
            static_cast<std::int64_t>(c.outstanding(0)));  // none ever finished
}

INSTANTIATE_TEST_SUITE_P(
    Params, DemandScaling,
    ::testing::Values(DemandCase{"light", 0.5, 1}, DemandCase{"paper_good", 2.0, 1},
                      DemandCase{"mid", 10.0, 5}, DemandCase{"paper_bad", 40.0, 20}),
    [](const ::testing::TestParamInfo<DemandCase>& i) { return i.param.name; });

}  // namespace
}  // namespace speakup::client
