// End-to-end reproductions of the paper's headline behaviours at reduced
// scale (fewer clients, shorter runs than the benches). Each test pins the
// *shape* of one evaluation result from §7.
#include <gtest/gtest.h>

#include "core/theory.hpp"
#include "exp/experiment.hpp"

namespace speakup::exp {
namespace {

// 25 good + 25 bad clients, 2 Mbit/s each, as §7.1. 30-second runs.
ScenarioConfig paper_lan(const std::string& defense, double capacity, std::uint64_t seed = 7) {
  ScenarioConfig cfg = lan_scenario(25, 25, capacity, defense, seed);
  cfg.duration = Duration::seconds(30.0);
  return cfg;
}

TEST(PaperResults, Fig2_SpeakUpRestoresProportionalAllocation) {
  // f = 0.5 point of Figure 2: G = B, c = 100. Without speak-up the good
  // clients get the request-rate share (~5%); with it, roughly the
  // bandwidth share (~0.4-0.5 measured; ideal 0.5).
  const ExperimentResult off = run_scenario(paper_lan("none", 100.0));
  const ExperimentResult on = run_scenario(paper_lan("auction", 100.0));
  EXPECT_LT(off.allocation_good, 0.10);
  EXPECT_GT(on.allocation_good, 0.33);
  EXPECT_LT(on.allocation_good, 0.60);
  // Sanity against theory: ideal no-defense share is g/(g+B).
  EXPECT_NEAR(off.allocation_good,
              core::theory::no_defense_good_allocation(50.0, 1000.0), 0.05);
}

TEST(PaperResults, Fig3_OverprovisionedCapacityServesAllGoodRequests) {
  // c = 200 = 2x c_id: all good requests served (right bars of Figure 3).
  const ExperimentResult r = run_scenario(paper_lan("auction", 200.0));
  EXPECT_GT(r.fraction_good_served, 0.95);
}

TEST(PaperResults, Fig3_UnderprovisionedCapacityStaysProportional) {
  // c = 50 = c_id/2: allocation is roughly bandwidth-proportional and the
  // good demand cannot be fully satisfied.
  const ExperimentResult r = run_scenario(paper_lan("auction", 50.0));
  EXPECT_GT(r.allocation_good, 0.30);
  EXPECT_LT(r.allocation_good, 0.60);
}

TEST(PaperResults, Fig4_PaymentTimeFallsWithCapacity) {
  // Figure 4 shape: uploading dummy bytes takes ~1/c-ish; with a lightly
  // loaded server the latency cost of speak-up nearly vanishes.
  const ExperimentResult c50 = run_scenario(paper_lan("auction", 50.0));
  const ExperimentResult c200 = run_scenario(paper_lan("auction", 200.0));
  EXPECT_GT(c50.thinner.payment_time_good.mean(),
            3 * c200.thinner.payment_time_good.mean());
  EXPECT_LT(c200.thinner.payment_time_good.mean(), 0.2);
}

TEST(PaperResults, Fig5_PriceIsBoundedByTheAverage) {
  // Figure 5: the average price stays below (G+B)/c (clients cannot spend
  // more bandwidth than they have; quiescence keeps them under the bound).
  const ExperimentResult r = run_scenario(paper_lan("auction", 50.0));
  const double upper = core::theory::average_price_bytes(
      25 * 250'000.0, 25 * 250'000.0, 50.0);  // (G+B)/c in bytes
  EXPECT_GT(r.thinner.price_good.count(), 50u);
  EXPECT_LT(r.thinner.price_good.mean(), upper * 1.05);
  EXPECT_GT(r.thinner.price_good.mean(), upper * 0.2);  // real contention
}

TEST(PaperResults, Fig6_AllocationTracksClientBandwidth) {
  // Two all-good bandwidth categories, 10 clients each: 0.5 vs 2.5 Mbit/s.
  // Server allocation should track the 1:5 bandwidth ratio (Figure 6).
  ScenarioConfig cfg;
  cfg.defense = "auction";
  cfg.capacity_rps = 10.0;
  cfg.seed = 7;
  cfg.duration = Duration::seconds(40.0);
  for (const double mbit : {0.5, 2.5}) {
    ClientGroupSpec g;
    g.label = "bw" + std::to_string(mbit);
    g.count = 10;
    g.workload = client::good_client_params();
    g.access_bw = Bandwidth::mbps(mbit);
    cfg.groups.push_back(g);
  }
  const ExperimentResult r = run_scenario(cfg);
  ASSERT_EQ(r.groups.size(), 2u);
  const double slow = r.groups[0].allocation;
  const double fast = r.groups[1].allocation;
  ASSERT_GT(slow, 0.0);
  const double ratio = fast / slow;
  EXPECT_GT(ratio, 2.5);  // ideal 5.0; allow quiescence effects
  EXPECT_LT(ratio, 10.0);
}

TEST(PaperResults, Fig7_LongRttGoodClientsGetLess) {
  // Two all-good RTT categories (Figure 7): ~1 ms vs ~400 ms. Long-RTT
  // clients pay slower (slow start + 2-RTT quiescence) and get less.
  ScenarioConfig cfg;
  cfg.defense = "auction";
  cfg.capacity_rps = 10.0;
  cfg.seed = 7;
  cfg.duration = Duration::seconds(40.0);
  for (const int delay_ms : {1, 200}) {
    ClientGroupSpec g;
    g.label = "rtt" + std::to_string(delay_ms);
    g.count = 10;
    g.workload = client::good_client_params();
    g.access_delay = Duration::millis(delay_ms);
    cfg.groups.push_back(g);
  }
  const ExperimentResult r = run_scenario(cfg);
  EXPECT_GT(r.groups[0].allocation, r.groups[1].allocation * 1.2);
}

TEST(PaperResults, Sec32_RetryVariantAlsoRestoresAllocation) {
  // The §3.2 mechanism meets the same design goal with in-band retries.
  const ExperimentResult off = run_scenario(paper_lan("none", 100.0));
  const ExperimentResult on = run_scenario(paper_lan("retry", 100.0));
  EXPECT_GT(on.allocation_good, 0.30);
  EXPECT_GT(on.allocation_good, off.allocation_good * 4);
  // The price in retries emerged and was recorded.
  EXPECT_GT(on.thinner.retries_good.mean(), 1.0);
}

TEST(PaperResults, Sec5_QuantumAuctionResistsHardRequestAttack) {
  // Attackers send only hard requests (difficulty 10) and concentrate
  // their bandwidth on one payment at a time (window 1 — splitting across
  // 20 channels would cripple their ability to pay the inflated prices).
  // Under the flat auction they pay the same price as everyone for 10x the
  // work, capturing most of the server's *time*; under the §5 quantum
  // auction every quantum is auctioned, so time reverts to proportional.
  auto build = [](const std::string& defense) {
    ScenarioConfig cfg = lan_scenario(10, 10, 20.0, defense, 7);
    cfg.duration = Duration::seconds(40.0);
    cfg.groups[1].workload.difficulty = 10;
    cfg.groups[1].workload.window = 1;
    cfg.groups[1].workload.lambda = 10.0;
    return cfg;
  };
  const ExperimentResult flat = run_scenario(build("auction"));
  const ExperimentResult quantum = run_scenario(build("quantum"));
  EXPECT_GT(quantum.server_time_good, flat.server_time_good * 1.5);
  EXPECT_LT(flat.server_time_good, 0.30);   // hard requests crowd good out
  EXPECT_GT(quantum.server_time_good, 0.30);  // quantum auction restores time share
}

TEST(PaperResults, Sec74_BadClientAdvantageIsBounded) {
  // §7.4: bad clients can cheat the proportional allocation, but only to a
  // limited extent: at c = c_id they keep the good fraction-served high,
  // and at modest overprovisioning everything is served.
  const ExperimentResult at_cid = run_scenario(paper_lan("auction", 100.0));
  // Good clients are *not* fully served at c_id...
  EXPECT_GT(at_cid.fraction_good_served, 0.6);
  // ...but the adversarial advantage is bounded: 50% overprovisioning
  // definitely suffices in this configuration (the paper measured +15%).
  const ExperimentResult extra = run_scenario(paper_lan("auction", 150.0));
  EXPECT_GT(extra.fraction_good_served, 0.93);
}

}  // namespace
}  // namespace speakup::exp
