// Unit tests for the struct-of-arrays client engine (client::ClientPool):
// dense request-slot reuse and generation safety in the pool-wide request
// slab, pause semantics, the zero-steady-state-allocation guarantee at 10^5
// clients, FIFO expiry of long and late backlogs in the pool-wide backlog
// slab, and the per-client byte budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/client_pool.hpp"
#include "client/strategy.hpp"
#include "client/workload_params.hpp"
#include "core/auction_thinner.hpp"
#include "net/network.hpp"
#include "sim/event_loop.hpp"
#include "transport/host.hpp"
#include "util/rng.hpp"

// Zero-allocation assertions use util::AllocGuard (the counting operator
// new lives in the speakup_counted_new object library): only the delta
// inside a measured region matters. SPEAKUP_TRAP_ALLOC=1 plus
// AllocGuard::set_trap aborts with a backtrace on the first allocation.
#include "util/alloc_guard.hpp"

namespace speakup::client {
namespace {

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

// A thinner host with NO listener answers every SYN with RST, so each
// request runs the full arrival -> connect -> reset -> denial -> slot
// release cycle. The slab must recycle a handful of dense slots through
// thousands of requests, never leaking live records.
TEST(ClientPool, RequestSlabRecyclesDenseSlots) {
  Rig rig;  // nothing listening on the thinner host
  constexpr int kClients = 4;
  WorkloadParams p = good_client_params();
  p.lambda = 50.0;
  ClientPool pool(rig.loop, rig.thinner_host->id(), p, 0);
  for (int i = 0; i < kClients; ++i) {
    pool.add_member(rig.add_host("c" + std::to_string(i)),
                    util::RngStream(3, "client." + std::to_string(i)));
  }
  pool.start_all();
  rig.run_for(20.0);

  std::int64_t started = 0, denied = 0;
  for (std::uint32_t i = 0; i < kClients; ++i) {
    started += pool.stats(i).started;
    denied += pool.stats(i).denied;
  }
  ASSERT_GT(started, 1000);  // the slab really churned
  EXPECT_EQ(denied, started);  // every request RST -> denied, none lost

  // Dense reuse: the high-water slot count is the peak concurrency
  // (window=1 per member plus requests awaiting their deferred teardown
  // tick), not the request count.
  EXPECT_LE(pool.request_slots(), 4u * kClients);
  EXPECT_EQ(pool.live_requests(), 0u);  // denial released every slot
}

TEST(ClientPool, PauseStopsNewArrivals) {
  Rig rig;
  core::FrontEndConfig tc;
  tc.capacity_rps = 100.0;
  core::AuctionThinner thinner(*rig.thinner_host, tc, util::RngStream(1, "srv"));
  ClientPool pool(rig.loop, rig.thinner_host->id(), good_client_params(), 0);
  pool.add_member(rig.add_host("c"), util::RngStream(1, "c"));
  pool.start_all();
  rig.run_for(5.0);
  const auto arrivals_at_pause = pool.stats(0).arrivals;
  EXPECT_GT(arrivals_at_pause, 0);
  pool.pause(0);
  rig.run_for(5.0);
  // At most one in-flight arrival event lands after pause().
  EXPECT_LE(pool.stats(0).arrivals, arrivals_at_pause + 1);
}

// The million-client contract: once warm, the pool's request
// cycle — arrival, slot acquire, connect, RST denial, stream retirement,
// slot release, next arrival draw — touches the allocator zero times, at
// 10^5 clients. (The RST-denial rig keeps the cycle client-side: the
// thinner host has no listener, so no server-side state grows.)
TEST(ClientPool, SteadyStateZeroAllocationsAt100kClients) {
  constexpr int kClients = 100'000;
  Rig rig;  // nothing listening: every request is denied by RST
  WorkloadParams p = good_client_params();  // lambda = 2.0
  ClientPool pool(rig.loop, rig.thinner_host->id(), p, 0);
  for (int i = 0; i < kClients; ++i) {
    pool.add_member(rig.add_host("c" + std::to_string(i)),
                    util::RngStream(5, "client." + std::to_string(i)));
  }
  pool.start_all();
  // Warm-up: every member's one-time state (host conn chunk + table, link
  // queue) is built on its first request; at lambda*T = 16 the expected
  // number of still-cold members is 1e5 * e^-16 ~ 0.01, and the run is
  // seed-deterministic.
  rig.run_for(8.0);

  const std::int64_t before_arr = [&] {
    std::int64_t a = 0;
    for (std::uint32_t i = 0; i < kClients; ++i) a += pool.stats(i).arrivals;
    return a;
  }();
#if SPEAKUP_AUDIT_ENABLED
  // Audit checkpoints may allocate scratch inside the measured region.
  GTEST_SKIP() << "zero-alloc guarantees are not measured in SPEAKUP_AUDIT builds";
#endif
  ASSERT_TRUE(util::AllocGuard::counting()) << "speakup_counted_new not linked";
  const util::AllocGuard guard;
  util::AllocGuard::set_trap(true);
  rig.run_for(0.25);
  util::AllocGuard::set_trap(false);
  std::int64_t arrivals = 0;
  for (std::uint32_t i = 0; i < kClients; ++i) arrivals += pool.stats(i).arrivals;
  ASSERT_GT(arrivals - before_arr, 10'000);  // the measured window did real work
  EXPECT_EQ(guard.delta(), 0) << "steady-state request cycle allocated";
}

// The per-client memory budget: every byte a window-1 client's requests
// make its host stack allocate (demux table, its share of the connection
// slab and the packet pool), averaged over 10^4 clients, must stay under a
// bound set from measurement — so transport state that outgrows what a
// client actually holds fails here, not only as peak RSS at 10^5 clients.
TEST(ClientPool, PerHostBytesStayWithinBudget) {
  constexpr int kClients = 10'000;
  Rig rig;
  // The thinner accepts and resets each connection once its request
  // arrives. A SYN refused outright would leave the client's link queue
  // unused: the handshake's final ACK and the request leave back to back,
  // and the second of them is what waits in that queue.
  const WorkloadParams p = good_client_params();
  struct AbortOnData final : transport::TcpConnection::Listener {
    void on_data(transport::TcpConnection& c, Bytes /*newly_delivered*/) override { c.abort(); }
  };
  AbortOnData abort_on_data;  // one listener serves every accepted connection
  rig.thinner_host->listen(p.request_port, [&abort_on_data](transport::TcpConnection& c) {
    c.set_listener(&abort_on_data);
  });
  ClientPool pool(rig.loop, rig.thinner_host->id(), p, 0);
  for (int i = 0; i < kClients; ++i) {
    pool.add_member(rig.add_host("c" + std::to_string(i)),
                    util::RngStream(5, "client." + std::to_string(i)));
  }
#if SPEAKUP_AUDIT_ENABLED
  // Audit checkpoints allocate scratch inside the measured region.
  GTEST_SKIP() << "allocation budgets are not measured in SPEAKUP_AUDIT builds";
#endif
  ASSERT_TRUE(util::AllocGuard::counting()) << "speakup_counted_new not linked";
  const util::AllocGuard guard;
  pool.start_all();
  rig.run_for(8.0);
  std::int64_t cold = 0;
  for (std::uint32_t i = 0; i < kClients; ++i) cold += pool.stats(i).started == 0;
  ASSERT_EQ(cold, 0) << "every host must have opened a connection";
  const double per_host = static_cast<double>(guard.bytes_delta()) / kClients;
  // Measured 137 B per host: a 4-entry demux table and a share of the
  // network-wide connection slab, the pool-wide and the thinner-side
  // growth. Connections live in the slab, whose size follows the
  // connections live at once, not the 10^4 hosts; links hold no packet
  // storage of their own (the network-wide packet pool is shared). The
  // bound is that plus ~16%. Per-host two-slot connection chunks (997 B)
  // or a two-packet ring per link direction (~330 B) break it; growth
  // under ~20 B per host does not.
  // sizeof(TcpConnection) and sizeof(Host) have static_asserts in
  // transport_test.
  EXPECT_LT(per_host, 160.0) << "bytes allocated per client host";
}

// Arrivals every 0.25 s, each member at its own phase; the window is wide
// open until 5 s and 1 from then on.
class LateBacklogStrategy final : public Strategy {
 public:
  static constexpr double kGapSec = 0.25;
  static constexpr double kLateSec = 5.0;
  explicit LateBacklogStrategy(StrategyParams p) : Strategy(std::move(p)) {}
  [[nodiscard]] std::string_view name() const override { return "late-backlog"; }
  [[nodiscard]] Duration next_arrival(util::RngStream& rng,
                                      const StrategyView& v) const override {
    return Duration::seconds(v.stats->arrivals == 0 ? rng.uniform(0.0, kGapSec) : kGapSec);
  }
  [[nodiscard]] int window(const StrategyView& v) const override {
    return v.now < SimTime::zero() + Duration::seconds(kLateSec) ? 1000 : 1;
  }
};

// The backlog store after its eager per-member rings: each member's first
// backlog push comes after 5 s of requests, and its backlog grows to 41
// entries, past the rings' old first capacity of 8. The thinner accepts
// every request and never answers, so after 5 s every arrival backlogs and
// only the 10 s expiry pops. A member's backlog after one of its arrivals
// is then exactly its last 41 arrivals (ages 0, 0.25, ..., 10 s: an entry
// exactly 10 s old still waits), and every older one became a denial — a
// LIFO order, or lists that mix members, would expire the wrong entries.
// Once the store has reached its peak, pushes reuse expired nodes: a
// further 10 s of arrivals touch the allocator zero times.
TEST(ClientPool, LateLongBacklogKeepsFifoExpiryWithoutAllocating) {
  StrategyFactory::instance().register_strategy(
      "late-backlog", [](const StrategyParams& p) -> std::unique_ptr<Strategy> {
        return std::make_unique<LateBacklogStrategy>(p);
      });
  Rig rig;
  WorkloadParams p = good_client_params();
  p.strategy = "late-backlog";
  rig.thinner_host->listen(p.request_port, [](transport::TcpConnection&) {});
  constexpr std::uint32_t kMembers = 3;
  ClientPool pool(rig.loop, rig.thinner_host->id(), p, 0);
  for (std::uint32_t i = 0; i < kMembers; ++i) {
    pool.add_member(rig.add_host("c" + std::to_string(i)),
                    util::RngStream(9, "client." + std::to_string(i)));
  }
  pool.start_all();
  const auto check = [&pool] {
    for (std::uint32_t m = 0; m < kMembers; ++m) {
      const ClientStats& st = pool.stats(m);
      ASSERT_EQ(st.started, 20) << "member " << m;  // the arrivals before 5 s
      EXPECT_EQ(pool.outstanding(m), 20u) << "member " << m;
      EXPECT_EQ(pool.backlog(m), 41u) << "member " << m;
      EXPECT_EQ(st.denied, st.arrivals - st.started - 41) << "member " << m;
    }
  };
  rig.run_for(30.0);
  check();
#if !SPEAKUP_AUDIT_ENABLED
  ASSERT_TRUE(util::AllocGuard::counting()) << "speakup_counted_new not linked";
  const util::AllocGuard guard;
  util::AllocGuard::set_trap(true);
  rig.run_for(10.0);
  util::AllocGuard::set_trap(false);
  EXPECT_EQ(guard.delta(), 0) << "backlog churn at its peak allocated";
  check();
  EXPECT_EQ(pool.stats(0).arrivals, 160);  // the window did real work
#endif
  StrategyFactory::instance().unregister_strategy("late-backlog");
}

// The per-member build budget: every byte reserve() and add_member()
// allocate for a group of 10^4 members, averaged per member. The hosts are
// built before the measured region, so this is the pool's own share of a
// client's memory once the topology stands.
TEST(ClientPool, BuildBytesPerMemberStayWithinBudget) {
  constexpr int kClients = 10'000;
  Rig rig;
  std::vector<transport::Host*> hosts;
  hosts.reserve(kClients);
  for (int i = 0; i < kClients; ++i) hosts.push_back(&rig.add_host("c" + std::to_string(i)));
  ClientPool pool(rig.loop, rig.thinner_host->id(), good_client_params(), 0);
#if SPEAKUP_AUDIT_ENABLED
  GTEST_SKIP() << "allocation budgets are not measured in SPEAKUP_AUDIT builds";
#endif
  ASSERT_TRUE(util::AllocGuard::counting()) << "speakup_counted_new not linked";
  const util::AllocGuard guard;
  pool.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    pool.add_member(*hosts[i], util::RngStream(5, "client." + std::to_string(i)));
  }
  const double per_member = static_cast<double>(guard.bytes_delta()) / kClients;
  // Measured 213 B per member, all of it parallel-array entries (a 120-B
  // ClientStats and a 40-B RNG stream the largest; the backlog queue and
  // the outstanding list are 12-B and 8-B heads into pool-wide slabs). The
  // bound is that plus ~10%. A heap-allocated Strategy per member (~56 B
  // with its pointer), a ClientStats that keeps raw samples (+32 B per
  // SampleSet), or a backlog ring allocated up front per member (+64 B)
  // breaks it.
  EXPECT_LT(per_member, 235.0) << "bytes allocated per pool member";
}

}  // namespace
}  // namespace speakup::client
