// Adversarial-input tests for the thinners: malformed, duplicated and
// out-of-order protocol messages must never crash the front end, corrupt
// accounting, or let a client cheat the auction's bookkeeping.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/auction_thinner.hpp"
#include "core/quantum_thinner.hpp"
#include "core/retry_thinner.hpp"
#include "net/network.hpp"
#include "sim/event_loop.hpp"
#include "transport/host.hpp"
#include "util/rng.hpp"

namespace speakup::core {
namespace {

using http::ClientClass;
using http::Message;
using http::MessageStream;
using http::MessageType;

struct Rig {
  Rig() : net(loop), pool(loop) {
    sw = &net.add_switch("sw");
    thinner_host = &net.add_node<transport::Host>("thinner");
    net.connect(*thinner_host, *sw,
                net::LinkSpec{Bandwidth::gbps(1.0), Duration::micros(500), 4'000'000});
  }

  transport::Host& add_host(const std::string& name) {
    auto& h = net.add_node<transport::Host>(name);
    net.connect(h, *sw, net::LinkSpec{Bandwidth::mbps(10.0), Duration::micros(500), 96'000});
    return h;
  }

  /// Opens a raw stream to the thinner and sends `msgs` on establishment.
  MessageStream& blast(transport::Host& from, std::uint32_t port,
                       std::vector<Message> msgs) {
    transport::TcpConnection& c = from.connect(thinner_host->id(), port);
    MessageStream& s = pool.adopt(c);
    MessageStream::Callbacks cbs;
    cbs.on_established = [&s, msgs = std::move(msgs)] {
      for (const Message& m : msgs) s.send(m);
    };
    s.set_callbacks(std::move(cbs));
    return s;
  }

  void run_for(double sec) { loop.run_until(loop.now() + Duration::seconds(sec)); }

  sim::EventLoop loop;
  net::Network net;
  http::SessionPool pool;
  net::Switch* sw = nullptr;
  transport::Host* thinner_host = nullptr;
};

TEST(ThinnerAdversarial, WrongMessageTypesOnRequestPortAreIgnored) {
  Rig rig;
  FrontEndConfig cfg;
  AuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  auto& h = rig.add_host("weird");
  rig.blast(h, cfg.request_port,
            {Message{.type = MessageType::kPayOpen, .request_id = 1},
             Message{.type = MessageType::kPostData, .request_id = 1, .body = 5'000},
             Message{.type = MessageType::kWin, .request_id = 1},
             Message{.type = MessageType::kResponse, .request_id = 1}});
  rig.run_for(2.0);
  EXPECT_EQ(thinner.stats().requests_received, 0);
  EXPECT_EQ(thinner.stats().served_total(), 0);
}

TEST(ThinnerAdversarial, DuplicateRequestIdIsCountedOnce) {
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 100.0;
  AuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  auto& h = rig.add_host("dup");
  rig.blast(h, cfg.request_port,
            {Message{.type = MessageType::kRequest, .request_id = 9, .cls = ClientClass::kGood},
             Message{.type = MessageType::kRequest, .request_id = 9, .cls = ClientClass::kGood},
             Message{.type = MessageType::kRequest, .request_id = 9, .cls = ClientClass::kGood}});
  rig.run_for(2.0);
  EXPECT_EQ(thinner.stats().served_good, 1);  // served once, not thrice
}

TEST(ThinnerAdversarial, PaymentForUnknownRequestExpiresAndIsWasted) {
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 100.0;
  cfg.payment_window = Duration::seconds(1.0);
  AuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  auto& h = rig.add_host("ghost");
  rig.blast(h, cfg.payment_port,
            {Message{.type = MessageType::kPayOpen, .request_id = 77},
             Message{.type = MessageType::kPostData, .request_id = 77, .body = 40'000}});
  rig.run_for(3.0);
  EXPECT_EQ(thinner.stats().channels_expired, 1);
  EXPECT_EQ(thinner.stats().payment_bytes_wasted, 40'000);
  EXPECT_EQ(thinner.contending(), 0u);
}

TEST(ThinnerAdversarial, TwoPaymentChannelsForOneRequestBothCredit) {
  // Splitting a request's payment across channels is allowed (the client is
  // only charged by total delivered bytes); both channels' bytes count.
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 0.5;  // server busy ~2 s
  AuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  auto& filler = rig.add_host("filler");
  rig.blast(filler, cfg.request_port, {Message{.type = MessageType::kRequest, .request_id = 1}});
  rig.run_for(0.2);
  auto& h = rig.add_host("split");
  rig.blast(h, cfg.request_port,
            {Message{.type = MessageType::kRequest, .request_id = 2,
                     .cls = ClientClass::kGood}});
  rig.blast(h, cfg.payment_port,
            {Message{.type = MessageType::kPayOpen, .request_id = 2},
             Message{.type = MessageType::kPostData, .request_id = 2, .body = 10'000}});
  rig.blast(h, cfg.payment_port,
            {Message{.type = MessageType::kPayOpen, .request_id = 2},
             Message{.type = MessageType::kPostData, .request_id = 2, .body = 15'000}});
  rig.run_for(3.5);  // first service ends; request 2 wins with 25 KB
  ASSERT_EQ(thinner.stats().price_good.count(), 1u);
  EXPECT_DOUBLE_EQ(thinner.stats().price_good.max(), 25'000.0);
}

TEST(ThinnerAdversarial, PayOpenAfterServiceIsHarmless) {
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 100.0;
  AuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  auto& h = rig.add_host("late");
  rig.blast(h, cfg.request_port, {Message{.type = MessageType::kRequest, .request_id = 5}});
  rig.run_for(1.0);  // request 5 served long ago
  rig.blast(h, cfg.payment_port,
            {Message{.type = MessageType::kPayOpen, .request_id = 5},
             Message{.type = MessageType::kPostData, .request_id = 5, .body = 1'000}});
  rig.run_for(1.0);
  // A fresh (requestless) state was created for the stale id; it expires.
  rig.run_for(10.0);
  EXPECT_EQ(thinner.contending(), 0u);
}

TEST(ThinnerAdversarial, RequestFloodFromOneHostIsBoundedByStateMachine) {
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 10.0;
  AuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  auto& h = rig.add_host("flood");
  std::vector<Message> flood;
  for (std::uint64_t i = 0; i < 200; ++i) {
    flood.push_back(Message{.type = MessageType::kRequest, .request_id = 1000 + i,
                            .cls = ClientClass::kBad});
  }
  rig.blast(h, cfg.request_port, std::move(flood));
  rig.run_for(5.0);
  // All requests arrived on one connection; they all registered but the
  // server only processed ~capacity*time of them.
  EXPECT_EQ(thinner.stats().requests_received, 200);
  EXPECT_LE(thinner.stats().served_total(), 60);
  // The rest are still contending (they never pay, so they only win when
  // the auction is otherwise empty).
  EXPECT_GT(thinner.contending(), 100u);
}

TEST(ThinnerAdversarial, RetryThinnerIgnoresGarbageAndDuplicates) {
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 1.0;
  RetryThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  auto& h = rig.add_host("garbage");
  rig.blast(h, cfg.request_port,
            {Message{.type = MessageType::kPostData, .request_id = 3, .body = 1'000},
             Message{.type = MessageType::kWin, .request_id = 3},
             Message{.type = MessageType::kRequest, .request_id = 3}});
  rig.run_for(2.0);
  EXPECT_EQ(thinner.stats().served_total(), 1);  // only the real request served
}

TEST(ThinnerAdversarial, QuantumThinnerSurvivesChannelChurnDuringService) {
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 2.0;
  cfg.quantum = Duration::millis(100);
  QuantumAuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  auto& h = rig.add_host("churn");
  rig.blast(h, cfg.request_port,
            {Message{.type = MessageType::kRequest, .request_id = 1, .difficulty = 4}});
  rig.run_for(0.2);
  // Open and abandon a payment channel every 200 ms while the request runs.
  for (int i = 0; i < 8; ++i) {
    MessageStream& s = rig.blast(
        h, cfg.payment_port,
        {Message{.type = MessageType::kPayOpen, .request_id = 1},
         Message{.type = MessageType::kPostData, .request_id = 1, .body = 2'000}});
    rig.run_for(0.2);
    rig.pool.retire(&s);
    rig.run_for(0.05);
  }
  rig.run_for(5.0);
  EXPECT_EQ(thinner.stats().served_total(), 1);
  EXPECT_EQ(thinner.stats().counters.get("aborts"), 0);
}

}  // namespace
}  // namespace speakup::core
