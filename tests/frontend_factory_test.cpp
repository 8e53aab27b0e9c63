// Tests for the polymorphic FrontEnd interface and its factory registry:
// every registered defense constructs through the registry, runs a short
// LAN scenario end to end, and reports consistent ThinnerStats — and a new
// defense plugs in without any edit to the experiment harness.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/front_end.hpp"
#include "core/front_end_factory.hpp"
#include "exp/experiment.hpp"
#include "exp/scenario.hpp"
#include "http/message.hpp"
#include "http/message_stream.hpp"
#include "http/session_pool.hpp"

namespace speakup {
namespace {

using core::FrontEnd;
using core::FrontEndConfig;
using core::FrontEndFactory;

exp::ScenarioConfig short_lan(const std::string& defense) {
  exp::ScenarioConfig cfg = exp::lan_scenario(/*good=*/3, /*bad=*/3, /*capacity_rps=*/50.0,
                                              defense, /*seed=*/17);
  cfg.duration = Duration::seconds(2.0);
  return cfg;
}

TEST(FrontEndFactory, NamesAreSortedAndUnique) {
  const auto names = FrontEndFactory::instance().names();
  ASSERT_GE(names.size(), 4u);
  const std::set<std::string> uniq(names.begin(), names.end());
  EXPECT_EQ(uniq.size(), names.size());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(FrontEndFactory, CreateRejectsUnknownName) {
  sim::EventLoop loop;
  net::Network net(loop);
  auto& sw = net.add_switch("sw");
  auto& host = net.add_node<transport::Host>("thinner");
  net.connect(host, sw, net::LinkSpec{Bandwidth::gbps(1.0), Duration::micros(500), 100'000});
  net.build_routes();
  EXPECT_THROW((void)FrontEndFactory::instance().create("no-such-defense", host,
                                                        FrontEndConfig{},
                                                        util::RngStream(1, "srv")),
               std::invalid_argument);
}

TEST(FrontEndFactory, DuplicateRegistrationThrows) {
  EXPECT_THROW(FrontEndFactory::instance().register_defense(
                   "auction", [](transport::Host&, const FrontEndConfig&,
                                 util::RngStream) -> std::unique_ptr<FrontEnd> {
                     return nullptr;
                   }),
               std::invalid_argument);
}

// The acceptance bar for the registry: every registered defense constructs,
// runs a short LAN scenario, and reports internally consistent stats
// through the uniform interface.
TEST(FrontEndFactory, EveryRegisteredDefenseRunsAScenario) {
  for (const std::string& name : FrontEndFactory::instance().names()) {
    exp::Experiment e(short_lan(name));
    FrontEnd* fe = e.front_end();
    ASSERT_NE(fe, nullptr) << name;
    EXPECT_EQ(fe->name(), name);

    const exp::ExperimentResult r = e.run();
    EXPECT_EQ(r.defense, name);
    // ThinnerStats consistency through the FrontEnd interface.
    const core::ThinnerStats& st = fe->stats();
    EXPECT_EQ(st.served_total(), st.served_good + st.served_bad + st.served_other) << name;
    EXPECT_EQ(fe->served(), st.served_total()) << name;
    EXPECT_GE(st.requests_received, st.served_total()) << name;
    EXPECT_GT(st.requests_received, 0) << name;
    EXPECT_GE(fe->server_busy_total().ns(),
              (fe->server_busy_good() + fe->server_busy_bad()).ns())
        << name;
    // The copy harvested into the result matches the live stats.
    EXPECT_EQ(r.served_total, st.served_total()) << name;
    EXPECT_DOUBLE_EQ(r.allocation_good + r.allocation_bad,
                     st.allocation_good() + st.allocation_bad())
        << name;
  }
}

TEST(FrontEndFactory, RegistersTheSixBuiltins) {
  for (const char* name : {"none", "retry", "auction", "quantum", "elastic", "puzzle"}) {
    EXPECT_TRUE(FrontEndFactory::instance().contains(name)) << name;
  }
}

// ---------------------------------------------------------------------------
// A defense beyond the six built-ins, defined entirely here: serves every
// request instantly, no payment, no queueing. Registering it requires no
// edit to experiment.cpp — that is the point of the registry.
// ---------------------------------------------------------------------------

class InstantServeFrontEnd final : public core::FrontEnd {
 public:
  InstantServeFrontEnd(transport::Host& host, const FrontEndConfig& cfg)
      : cfg_(cfg), pool_(host.loop()) {
    host.listen(cfg.request_port, [this](transport::TcpConnection& c) {
      http::MessageStream& s = pool_.adopt(c);
      http::MessageStream::Callbacks cbs;
      cbs.on_message = [this, &s](const http::Message& m) { on_message(s, m); };
      cbs.on_reset = [this, &s] { pool_.retire(&s); };
      s.set_callbacks(std::move(cbs));
    });
  }

  [[nodiscard]] std::string_view name() const override { return "instant"; }
  [[nodiscard]] const core::ThinnerStats& stats() const override { return stats_; }
  [[nodiscard]] std::size_t contending() const override { return 0; }
  [[nodiscard]] Duration server_busy_good() const override { return Duration::zero(); }
  [[nodiscard]] Duration server_busy_bad() const override { return Duration::zero(); }
  [[nodiscard]] Duration server_busy_total() const override { return Duration::zero(); }
  void on_run_start() override { ++run_start_calls; }
  void on_run_end() override { ++run_end_calls; }

  int run_start_calls = 0;
  int run_end_calls = 0;

 private:
  void on_message(http::MessageStream& s, const http::Message& m) {
    if (m.type != http::MessageType::kRequest) return;
    ++stats_.requests_received;
    if (m.cls == http::ClientClass::kGood) {
      ++stats_.served_good;
    } else if (m.cls == http::ClientClass::kBad) {
      ++stats_.served_bad;
    } else {
      ++stats_.served_other;
    }
    s.send(http::Message{.type = http::MessageType::kResponse,
                         .request_id = m.request_id,
                         .body = cfg_.response_body});
  }

  FrontEndConfig cfg_;
  http::SessionPool pool_;
  core::ThinnerStats stats_;
};

class FifthDefenseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FrontEndFactory::instance().register_defense(
        "instant", [this](transport::Host& host, const FrontEndConfig& cfg,
                          util::RngStream) -> std::unique_ptr<FrontEnd> {
          auto fe = std::make_unique<InstantServeFrontEnd>(host, cfg);
          last_created_ = fe.get();
          return fe;
        });
  }
  void TearDown() override { FrontEndFactory::instance().unregister_defense("instant"); }

  InstantServeFrontEnd* last_created_ = nullptr;
};

TEST_F(FifthDefenseTest, PlugsInWithoutTouchingTheHarness) {
  exp::Experiment e(short_lan("instant"));
  ASSERT_NE(e.front_end(), nullptr);
  EXPECT_EQ(e.front_end(), last_created_);
  EXPECT_EQ(e.front_end()->name(), "instant");

  const exp::ExperimentResult r = e.run();
  EXPECT_EQ(r.defense, "instant");
  EXPECT_GT(r.served_total, 0);  // it really served traffic end to end
  EXPECT_EQ(last_created_->run_start_calls, 1);
  EXPECT_EQ(last_created_->run_end_calls, 1);
}

TEST_F(FifthDefenseTest, RunScenarioWorksByName) {
  const exp::ExperimentResult r = exp::run_scenario(short_lan("instant"));
  EXPECT_EQ(r.defense, "instant");
  EXPECT_GT(r.served_total, 0);
}

}  // namespace
}  // namespace speakup
