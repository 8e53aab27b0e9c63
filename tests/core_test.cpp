// Tests for the thinner variants, driven by hand-rolled clients so that
// payments and timing are under precise test control.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/auction_thinner.hpp"
#include "core/elastic_front_end.hpp"
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

/// A scriptable client host: issues requests and payments on demand and
/// records every message the thinner sends back.
class ManualClient {
 public:
  ManualClient(net::Network& net, net::Node& attach_to, const std::string& name)
      : host_(&net.add_node<transport::Host>(name)), pool_(net.loop()) {
    net.connect(*host_, attach_to,
                net::LinkSpec{Bandwidth::mbps(10.0), Duration::micros(500), 200'000});
  }

  void send_request(net::NodeId thinner, std::uint64_t id,
                    ClientClass cls = ClientClass::kGood, int difficulty = 1) {
    transport::TcpConnection& c = host_->connect(thinner, 80);
    MessageStream& s = pool_.adopt(c);
    request_streams_[id] = &s;
    MessageStream::Callbacks cbs;
    cbs.on_established = [this, &s, id, cls, difficulty] {
      s.send(Message{.type = MessageType::kRequest,
                     .request_id = id,
                     .cls = cls,
                     .difficulty = difficulty});
    };
    cbs.on_message = [this, id](const Message& m) { inbox[id].push_back(m); };
    cbs.on_reset = [this, id] { resets.push_back(id); };
    s.set_callbacks(std::move(cbs));
  }

  /// Opens a payment channel and pays `amount` bytes (single POST).
  void pay(net::NodeId thinner, std::uint64_t id, Bytes amount,
           ClientClass cls = ClientClass::kGood) {
    transport::TcpConnection& c = host_->connect(thinner, 81);
    MessageStream& s = pool_.adopt(c);
    MessageStream::Callbacks cbs;
    cbs.on_established = [&s, id, amount, cls] {
      s.send(Message{.type = MessageType::kPayOpen, .request_id = id, .cls = cls});
      s.send(Message{
          .type = MessageType::kPostData, .request_id = id, .body = amount, .cls = cls});
    };
    cbs.on_message = [this, id](const Message& m) { pay_inbox[id].push_back(m); };
    s.set_callbacks(std::move(cbs));
  }

  /// Resends a request message on the existing stream (retry-mode).
  void resend_request(std::uint64_t id, ClientClass cls = ClientClass::kGood) {
    const auto it = request_streams_.find(id);
    ASSERT_NE(it, request_streams_.end());
    it->second->send(Message{.type = MessageType::kRequest, .request_id = id, .cls = cls});
  }

  [[nodiscard]] bool got(std::uint64_t id, MessageType t) const {
    const auto it = inbox.find(id);
    if (it == inbox.end()) return false;
    for (const Message& m : it->second) {
      if (m.type == t) return true;
    }
    return false;
  }

  [[nodiscard]] bool paid_won(std::uint64_t id) const {
    const auto it = pay_inbox.find(id);
    if (it == pay_inbox.end()) return false;
    for (const Message& m : it->second) {
      if (m.type == MessageType::kWin) return true;
    }
    return false;
  }

  std::map<std::uint64_t, std::vector<Message>> inbox;
  std::map<std::uint64_t, std::vector<Message>> pay_inbox;
  std::vector<std::uint64_t> resets;

 private:
  transport::Host* host_;
  http::SessionPool pool_;
  std::map<std::uint64_t, MessageStream*> request_streams_;
};

struct Rig {
  Rig() : net(loop) {
    sw = &net.add_switch("sw");
    thinner_host = &net.add_node<transport::Host>("thinner");
    net.connect(*thinner_host, *sw,
                net::LinkSpec{Bandwidth::gbps(1.0), Duration::micros(500), 4'000'000});
  }
  void run_for(double sec) { loop.run_until(loop.now() + Duration::seconds(sec)); }

  sim::EventLoop loop;
  net::Network net;
  net::Switch* sw = nullptr;
  transport::Host* thinner_host = nullptr;
};

// --------------------------------------------------------------------------
// AuctionThinner
// --------------------------------------------------------------------------

TEST(AuctionThinner, IdleServerAdmitsImmediatelyAtPriceZero) {
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 10.0;
  AuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  ManualClient c(rig.net, *rig.sw, "c0");
  c.send_request(rig.thinner_host->id(), 1, ClientClass::kGood);
  rig.run_for(1.0);
  EXPECT_TRUE(c.got(1, MessageType::kResponse));
  EXPECT_FALSE(c.got(1, MessageType::kPleasePay));
  EXPECT_EQ(thinner.stats().served_good, 1);
  EXPECT_EQ(thinner.stats().direct_admissions, 1);
  ASSERT_EQ(thinner.stats().price_good.count(), 1u);
  EXPECT_DOUBLE_EQ(thinner.stats().price_good.mean(), 0.0);
}

TEST(AuctionThinner, BusyServerAsksForPayment) {
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 1.0;  // ~1 s service times
  AuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  ManualClient c(rig.net, *rig.sw, "c0");
  c.send_request(rig.thinner_host->id(), 1);
  rig.run_for(0.1);
  c.send_request(rig.thinner_host->id(), 2);
  rig.run_for(0.1);
  EXPECT_TRUE(c.got(2, MessageType::kPleasePay));
  EXPECT_FALSE(c.got(2, MessageType::kResponse));
}

TEST(AuctionThinner, HighestBidderWinsTheAuction) {
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 1.0;
  AuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  ManualClient a(rig.net, *rig.sw, "a");
  ManualClient b(rig.net, *rig.sw, "b");
  ManualClient c(rig.net, *rig.sw, "c");
  a.send_request(rig.thinner_host->id(), 1);  // takes the idle server
  rig.run_for(0.05);
  b.send_request(rig.thinner_host->id(), 2);
  c.send_request(rig.thinner_host->id(), 3);
  rig.run_for(0.05);
  b.pay(rig.thinner_host->id(), 2, 50'000);
  c.pay(rig.thinner_host->id(), 3, 100'000);
  rig.run_for(0.5);  // payments complete well before the ~1 s service ends
  // First completion auctions between b(50k) and c(100k): c wins.
  rig.run_for(1.0);
  EXPECT_TRUE(c.paid_won(3));
  EXPECT_FALSE(b.paid_won(2));
  rig.run_for(2.5);  // c completes (~2 s), b wins the follow-up auction (~3 s)
  EXPECT_TRUE(c.got(3, MessageType::kResponse));
  EXPECT_TRUE(b.got(2, MessageType::kResponse));
  EXPECT_EQ(thinner.stats().served_good, 3);
  EXPECT_EQ(thinner.stats().auctions_held, 2);
}

TEST(AuctionThinner, RecordedPriceIsWinnersBytes) {
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 1.0;
  AuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  ManualClient a(rig.net, *rig.sw, "a");
  ManualClient b(rig.net, *rig.sw, "b");
  a.send_request(rig.thinner_host->id(), 1);
  rig.run_for(0.05);
  b.send_request(rig.thinner_host->id(), 2);
  rig.run_for(0.05);
  b.pay(rig.thinner_host->id(), 2, 80'000);
  rig.run_for(3.0);
  EXPECT_TRUE(b.got(2, MessageType::kResponse));
  // Price samples: request 1 paid 0 (direct), request 2 paid 80k.
  ASSERT_EQ(thinner.stats().price_good.count(), 2u);
  EXPECT_DOUBLE_EQ(thinner.stats().price_good.max(), 80'000.0);
}

TEST(AuctionThinner, PaymentBeforeRequestIsCreditedOnArrival) {
  // §7.3's overpayment case: the payment channel opens first; the request
  // arrives later (delayed behind payment bytes for real bad clients).
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 1.0;
  AuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  ManualClient a(rig.net, *rig.sw, "a");
  ManualClient b(rig.net, *rig.sw, "b");
  a.send_request(rig.thinner_host->id(), 1);  // occupy the server (~1 s)
  rig.run_for(0.05);
  b.pay(rig.thinner_host->id(), 2, 60'000);  // pays with NO request yet
  rig.run_for(0.5);
  // The auction at t~1s has no eligible contender (no request): idle.
  rig.run_for(1.0);
  EXPECT_EQ(thinner.stats().served_total(), 1);
  // Request 2 finally arrives: admitted immediately, price = 60 KB.
  b.send_request(rig.thinner_host->id(), 2);
  rig.run_for(2.0);
  EXPECT_TRUE(b.got(2, MessageType::kResponse));
  ASSERT_EQ(thinner.stats().price_good.count(), 2u);
  EXPECT_DOUBLE_EQ(thinner.stats().price_good.max(), 60'000.0);
}

TEST(AuctionThinner, PostCompletionElicitsContinue) {
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 1.0;
  AuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  ManualClient a(rig.net, *rig.sw, "a");
  ManualClient b(rig.net, *rig.sw, "b");
  a.send_request(rig.thinner_host->id(), 1);
  rig.run_for(0.05);
  b.send_request(rig.thinner_host->id(), 2);
  b.pay(rig.thinner_host->id(), 2, 10'000);
  rig.run_for(0.5);
  ASSERT_NE(b.pay_inbox.find(2), b.pay_inbox.end());
  EXPECT_EQ(b.pay_inbox[2].front().type, MessageType::kPostContinue);
}

TEST(AuctionThinner, RequestlessChannelExpiresAfterWindow) {
  // §7.3 wastage: a payment channel whose request never arrives is timed
  // out after the payment window and its bytes are wasted.
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 0.2;  // ~5 s service keeps the server busy throughout
  cfg.payment_window = Duration::seconds(2.0);
  AuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  ManualClient x(rig.net, *rig.sw, "x");
  ManualClient y(rig.net, *rig.sw, "y");
  x.send_request(rig.thinner_host->id(), 1);
  rig.run_for(0.1);
  y.pay(rig.thinner_host->id(), 2, 5'000);  // request 2 never arrives
  rig.run_for(3.0);
  EXPECT_EQ(thinner.stats().channels_expired, 1);
  EXPECT_EQ(thinner.stats().payment_bytes_wasted, 5'000);
  EXPECT_EQ(thinner.contending(), 1u);  // only the one being served remains
}

TEST(AuctionThinner, ContenderWithRequestSurvivesTheWindow) {
  // A contender whose request is present keeps paying past the window and
  // eventually wins (the window is only for missing requests).
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 0.2;  // ~5 s service
  cfg.payment_window = Duration::seconds(2.0);
  AuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  ManualClient x(rig.net, *rig.sw, "x");
  ManualClient y(rig.net, *rig.sw, "y");
  x.send_request(rig.thinner_host->id(), 1);
  rig.run_for(0.1);
  y.send_request(rig.thinner_host->id(), 2);
  y.pay(rig.thinner_host->id(), 2, 5'000);
  rig.run_for(6.5);  // well past the window; first service ends ~5 s
  EXPECT_EQ(thinner.stats().channels_expired, 0);
  EXPECT_TRUE(y.got(2, MessageType::kResponse) || y.paid_won(2));
}

TEST(AuctionThinner, TieBreaksByArrivalOrder) {
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 1.0;
  AuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  ManualClient a(rig.net, *rig.sw, "a");
  ManualClient b(rig.net, *rig.sw, "b");
  ManualClient c(rig.net, *rig.sw, "c");
  a.send_request(rig.thinner_host->id(), 1);
  rig.run_for(0.05);
  b.send_request(rig.thinner_host->id(), 2);  // arrives first
  rig.run_for(0.05);
  c.send_request(rig.thinner_host->id(), 3);
  rig.run_for(2.0);  // first completion: both paid 0 -> b (earlier) wins
  EXPECT_TRUE(b.got(2, MessageType::kResponse));
  EXPECT_FALSE(c.got(3, MessageType::kResponse));
}

TEST(AuctionThinner, ClassAccountingSeparatesGoodAndBad) {
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 10.0;
  AuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  ManualClient g(rig.net, *rig.sw, "g");
  ManualClient b(rig.net, *rig.sw, "b");
  g.send_request(rig.thinner_host->id(), 1, ClientClass::kGood);
  rig.run_for(0.5);
  b.send_request(rig.thinner_host->id(), 2, ClientClass::kBad);
  rig.run_for(0.5);
  EXPECT_EQ(thinner.stats().served_good, 1);
  EXPECT_EQ(thinner.stats().served_bad, 1);
  EXPECT_DOUBLE_EQ(thinner.stats().allocation_good(), 0.5);
}

// --------------------------------------------------------------------------
// RetryThinner
// --------------------------------------------------------------------------

TEST(RetryThinner, IdleServerAdmitsImmediately) {
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 10.0;
  RetryThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  ManualClient c(rig.net, *rig.sw, "c");
  c.send_request(rig.thinner_host->id(), 1);
  rig.run_for(1.0);
  EXPECT_TRUE(c.got(1, MessageType::kResponse));
  ASSERT_EQ(thinner.stats().retries_good.count(), 1u);
  EXPECT_DOUBLE_EQ(thinner.stats().retries_good.mean(), 1.0);  // one try
}

TEST(RetryThinner, BusyServerSendsRetrySignal) {
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 1.0;
  RetryThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  ManualClient c(rig.net, *rig.sw, "c");
  c.send_request(rig.thinner_host->id(), 1);
  rig.run_for(0.05);
  c.send_request(rig.thinner_host->id(), 2);
  rig.run_for(0.1);
  EXPECT_TRUE(c.got(2, MessageType::kRetry));
}

TEST(RetryThinner, PersistentRetrierGetsServedAndPriceCounted) {
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 1.0;
  RetryThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  ManualClient c(rig.net, *rig.sw, "c");
  c.send_request(rig.thinner_host->id(), 1);
  rig.run_for(0.05);
  c.send_request(rig.thinner_host->id(), 2);
  // Retry every 100 ms until served.
  for (int i = 0; i < 25; ++i) {
    rig.run_for(0.1);
    if (c.got(2, MessageType::kResponse)) break;
    c.resend_request(2);
  }
  EXPECT_TRUE(c.got(2, MessageType::kResponse));
  ASSERT_EQ(thinner.stats().retries_good.count(), 2u);
  // Request 2 needed several retries; the price reflects that.
  EXPECT_GT(thinner.stats().retries_good.max(), 3.0);
}

// --------------------------------------------------------------------------
// "none": the elastic front end, unscaled
// --------------------------------------------------------------------------

TEST(NoDefense, DropsWhenBusyServesWhenFree) {
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 1.0;
  ElasticFrontEnd fe(*rig.thinner_host, cfg, util::RngStream(1, "srv"), /*unscaled=*/true);
  EXPECT_EQ(fe.name(), "none");
  ManualClient c(rig.net, *rig.sw, "c");
  c.send_request(rig.thinner_host->id(), 1);
  rig.run_for(0.05);
  c.send_request(rig.thinner_host->id(), 2);
  rig.run_for(0.1);
  EXPECT_TRUE(c.got(2, MessageType::kBusy));
  rig.run_for(2.0);
  EXPECT_TRUE(c.got(1, MessageType::kResponse));
  EXPECT_EQ(fe.stats().busy_rejections, 1);
  EXPECT_EQ(fe.stats().served_total(), 1);
}

// --------------------------------------------------------------------------
// QuantumAuctionThinner (§5)
// --------------------------------------------------------------------------

TEST(QuantumThinner, ServesSingleRequestLikeFlatThinner) {
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 10.0;
  QuantumAuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  ManualClient c(rig.net, *rig.sw, "c");
  c.send_request(rig.thinner_host->id(), 1);
  rig.run_for(1.0);
  EXPECT_TRUE(c.got(1, MessageType::kResponse));
  EXPECT_EQ(thinner.stats().served_good, 1);
}

TEST(QuantumThinner, PayingContenderPreemptsNonPayingActive) {
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 1.0;       // 1 s per difficulty unit
  cfg.quantum = Duration::millis(200);
  QuantumAuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  ManualClient slow(rig.net, *rig.sw, "slow");
  ManualClient fast(rig.net, *rig.sw, "fast");
  slow.send_request(rig.thinner_host->id(), 1, ClientClass::kBad, /*difficulty=*/5);
  rig.run_for(0.1);  // slow holds the server (needs ~5 s)
  fast.send_request(rig.thinner_host->id(), 2, ClientClass::kGood, 1);
  rig.run_for(0.05);
  fast.pay(rig.thinner_host->id(), 2, 50'000);
  rig.run_for(1.5);
  // fast outbid the (non-paying) active request at a quantum boundary,
  // was admitted, and finished its ~1 s of work.
  EXPECT_TRUE(fast.got(2, MessageType::kResponse));
  EXPECT_FALSE(slow.got(1, MessageType::kResponse));
  EXPECT_GE(thinner.stats().counters.get("suspensions"), 1);
  // slow resumes once fast is done and eventually completes.
  rig.run_for(6.0);
  EXPECT_TRUE(slow.got(1, MessageType::kResponse));
}

TEST(QuantumThinner, SuspendedTooLongIsAborted) {
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 1.0;
  cfg.quantum = Duration::millis(200);
  cfg.suspension_limit = Duration::seconds(2.0);
  QuantumAuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  ManualClient victim(rig.net, *rig.sw, "victim");
  ManualClient hog(rig.net, *rig.sw, "hog");
  victim.send_request(rig.thinner_host->id(), 1, ClientClass::kGood, 3);
  rig.run_for(0.1);
  hog.send_request(rig.thinner_host->id(), 2, ClientClass::kBad, /*difficulty=*/20);
  rig.run_for(0.05);
  hog.pay(rig.thinner_host->id(), 2, 200'000);  // outbids the victim for good
  rig.run_for(4.0);
  // The victim was suspended, the hog's 20 s job keeps the server, and the
  // 2 s suspension limit aborts the victim.
  EXPECT_TRUE(victim.got(1, MessageType::kAborted));
  EXPECT_GE(thinner.stats().counters.get("aborts"), 1);
  EXPECT_FALSE(victim.got(1, MessageType::kResponse));
}

TEST(QuantumThinner, ActivePayerKeepsServerAgainstSmallerBids) {
  Rig rig;
  FrontEndConfig cfg;
  cfg.capacity_rps = 1.0;
  cfg.quantum = Duration::millis(200);
  QuantumAuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  ManualClient holder(rig.net, *rig.sw, "holder");
  ManualClient rival(rig.net, *rig.sw, "rival");
  holder.send_request(rig.thinner_host->id(), 1, ClientClass::kGood, 3);
  rig.run_for(0.1);
  // A 5 MB POST takes ~4 s at 10 Mbit/s — the holder pays throughout its
  // ~3 s of service and outbids the rival at every quantum.
  holder.pay(rig.thinner_host->id(), 1, 5'000'000);
  rival.send_request(rig.thinner_host->id(), 2, ClientClass::kBad, 1);
  rig.run_for(0.05);
  rival.pay(rig.thinner_host->id(), 2, 1'000);  // tiny bid
  rig.run_for(3.6);
  // The holder completes its ~3 s request without ever being suspended:
  // its ongoing payment outbids the rival at every quantum.
  EXPECT_TRUE(holder.got(1, MessageType::kResponse));
  EXPECT_EQ(thinner.stats().counters.get("suspensions"), 0);
}

}  // namespace
}  // namespace speakup::core
