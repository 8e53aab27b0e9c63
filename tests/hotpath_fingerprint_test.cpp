// Pins the ExperimentResult fingerprints of every checked-in scenario file
// except the 10^5-client million_clients.json: the smoke sweep, the
// loss-heavy sweeps (shared_bottleneck.json, lossy.json), the paper and
// adversary sweeps, and the one-row-per-defense sweep (defenses.json).
//
// The hot-path refactor contract is behavior-invisibility: rewriting the
// event representation, the timer store (heap vs wheel), the TCP
// out-of-order tracker, the Link packet pipeline, or the queue storage must
// not change a single simulated outcome. fingerprint() hashes every counter
// in the result INCLUDING events_executed, so even an extra or re-ordered
// event trips this test. The smoke constants were captured from the
// pre-PR-4 (PR 3) tree; the loss-heavy constants from the pre-round-2
// (PR 4) tree — i.e. always from the code *before* the refactor they
// guard. The paper and adversary pins were captured from the per-object
// client engine (one client object per member) just before ClientPool
// became the only client engine, so they also pin that the pool replays
// the per-object event sequence. If a future change legitimately alters
// simulation behavior, re-pin them in the same commit that explains why.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_io.hpp"

namespace speakup::exp {
namespace {

std::string hex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(fp));
  return buf;
}

using Pins = std::vector<std::pair<std::string, std::string>>;

/// Queues whole scenario files with their expected fingerprints, then runs
/// every queued row in one thread-pool pass (results are bit-identical for
/// any thread count).
class PinCheck {
 public:
  /// `pins` lists (label, fingerprint) for every scenario of the file, in
  /// file order.
  void expect_pins(const std::string& file_name, const Pins& pins) {
    const ScenarioFile file =
        load_scenario_file(std::string(SPEAKUP_SCENARIO_DIR) + "/" + file_name);
    ASSERT_EQ(file.scenarios.size(), pins.size()) << file_name;
    for (std::size_t i = 0; i < pins.size(); ++i) {
      const LabeledScenario& s = file.scenarios[i];
      ASSERT_EQ(s.label, pins[i].first)
          << file_name << ": scenario order changed; re-check pins";
      runner_.add(s.config, file_name + ":" + s.label);
      expected_.push_back(pins[i].second);
    }
  }

  void run() {
    const std::vector<RunOutcome>& outcomes = runner_.run_all();
    ASSERT_EQ(outcomes.size(), expected_.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const RunOutcome& o = outcomes[i];
      ASSERT_TRUE(o.ok()) << o.label << ": " << o.error;
      EXPECT_EQ(hex(o.result.fingerprint()), expected_[i])
          << "behavior drift in '" << o.label
          << "' (events_executed=" << o.result.events_executed << ")";
    }
  }

  /// Outcomes of run(), in queue order.
  [[nodiscard]] const std::vector<RunOutcome>& outcomes() const { return runner_.outcomes(); }

 private:
  Runner runner_;
  std::vector<std::string> expected_;
};

TEST(HotPathFingerprint, SmokeSweepMatchesPreRefactorPins) {
  // Captured at PR 3 (seed event loop, pre-slab).
  PinCheck check;
  check.expect_pins("smoke.json", {
                                {"smoke/none", "5926ff42af7d304f"},
                                {"smoke/retry", "6f503a28a37defd5"},
                                {"smoke/auction", "058ae2081de114a0"},
                                {"smoke/quantum", "785972ef788a9750"},
                                {"smoke/auction-seeds/seed7", "058ae2081de114a0"},
                                {"smoke/auction-seeds/seed8", "9bf42045de308896"},
                            });
  check.run();
}

TEST(HotPathFingerprint, SharedBottleneckSweepMatchesPreWheelPins) {
  // The fig8 grid: sustained bottleneck overflow — fast recovery and RTO on
  // every connection. Captured at PR 4 (binary heap, std::map OOO tracker),
  // before the timer wheel / 4-ary heap / interval-vector round.
  PinCheck check;
  check.expect_pins("shared_bottleneck.json", {
                                            {"25/5", "ec056f4cfaef3dc3"},
                                            {"15/15", "b8da20a64b334756"},
                                            {"5/25", "159992d06766ed25"},
                                        });
  check.run();
}

TEST(HotPathFingerprint, LossySweepMatchesPreWheelPins) {
  // The fig9 grid: a saturated 1 Mbit/s bottleneck dropping continuously —
  // the deepest checked-in exercise of the TCP loss path. Captured at PR 4.
  PinCheck check;
  check.expect_pins("lossy.json", {
                                {"off/1KB", "a1aa978c57d87c4c"},
                                {"on/1KB", "3fa7ce9c1dee200e"},
                                {"off/2KB", "adb477255f4ffb88"},
                                {"on/2KB", "33a431b0afaface3"},
                                {"off/4KB", "7f93c0fd13ebd5a0"},
                                {"on/4KB", "82c44c174f4cb1a3"},
                                {"off/8KB", "5aaaff106ab83ead"},
                                {"on/8KB", "51d944df0f228e04"},
                                {"off/16KB", "864e879c8fed0f43"},
                                {"on/16KB", "8d5589d1d0d275bd"},
                                {"off/32KB", "17063f2284721d39"},
                                {"on/32KB", "072a4170164804a5"},
                                {"off/64KB", "f4b2720bc8af781b"},
                                {"on/64KB", "8d33a45b8935aaa1"},
                                {"off/100KB", "78c4b8f38eaabe4b"},
                                {"on/100KB", "6364491cbbfafbec"},
                            });
  check.run();
}

TEST(HotPathFingerprint, PaperAndAdversarySweepsMatchPerObjectEnginePins) {
  // Captured from the per-object client engine at the commit before its
  // deletion (`speakup run F.json`, fingerprint column); all 88 rows run
  // in one thread-pool pass.
  PinCheck check;
  check.expect_pins("fig2.json", {
      {"none/g5", "394094f0972c3569"},
      {"none/g10", "7a193f94690a7c18"},
      {"none/g15", "f32dfdaf1463bbe1"},
      {"none/g20", "b04592af7b8282ad"},
      {"none/g25", "124244302b701c7c"},
      {"none/g30", "75a17c0f8bcdb217"},
      {"none/g35", "f71a37e45517a8c0"},
      {"none/g40", "1b4d52dc5d9a1fd2"},
      {"none/g45", "481dc6e65e4e0932"},
      {"auction/g5", "6f335bbf37db2641"},
      {"auction/g10", "09000d9d2b83b004"},
      {"auction/g15", "56c96be39fdf904a"},
      {"auction/g20", "9212f4280dff918e"},
      {"auction/g25", "72414884d0dd4eec"},
      {"auction/g30", "8011d01ca78c5884"},
      {"auction/g35", "dce3be147b04dff1"},
      {"auction/g40", "7d3183e547ffc0f7"},
      {"auction/g45", "8d07875d965084c1"},
  });
  check.expect_pins("fig3.json", {
      {"none/c50", "5ffb69b1fb0f5c48"},
      {"auction/c50", "b28e7fb99009273b"},
      {"none/c100", "5b39a01c62a8c8a4"},
      {"auction/c100", "0d052f6c6dee3dd9"},
      {"none/c200", "e1886c66f413a78e"},
      {"auction/c200", "a75fe11afa112a14"},
  });
  check.expect_pins("fig4.json", {
      {"c50", "5acf529cab449404"},
      {"c100", "eb35df4140eb11cb"},
      {"c200", "26b55dcdb9d19bed"},
  });
  check.expect_pins("fig5.json", {
      {"c50", "55cff30f569c7afb"},
      {"c100", "6afa1cbe9e742a30"},
      {"c200", "bc3be434020c50c4"},
  });
  check.expect_pins("fig6.json", {
      {"hetero-bw", "49b9fcccb655039b"},
  });
  check.expect_pins("fig7.json", {
      {"all-good", "2175a60f0dddfb82"},
      {"all-bad", "76b8782043ee33df"},
  });
  check.expect_pins("tab1.json", {
      {"row1", "f76d54815b093a35"},
      {"row2/c110", "c1cc87facbd94f44"},
      {"row2/c125", "2868921caab60dac"},
      {"row2/c140", "77aad5d344a540ac"},
      {"row2/c155", "643a068955a0d351"},
      {"row4/off", "feef7ab29e5dbf49"},
      {"row4/on", "db2f4f150c4d2502"},
  });
  check.expect_pins("abl1.json", {
      {"retry/c50", "2ec07051291047d1"},
      {"retry/c100", "7b950d8b4dd9e924"},
      {"retry/c200", "1f9214c3db9e8ed5"},
      {"auction/c50", "5ba2cfbb6cc32197"},
      {"auction/c100", "e58ba244cd133765"},
      {"auction/c200", "012bc0da63903e4a"},
  });
  check.expect_pins("abl3.json", {
      {"25KB", "e333d547ac6c1152"},
      {"100KB", "c84689f1829cce0c"},
      {"1000KB", "84facdeca1f0d87c"},
  });
  check.expect_pins("abl4.json", {
      {"auction/d1", "fc8f1211b7355fa9"},
      {"quantum/d1", "e97a4eb61b777674"},
      {"auction/d5", "476b6c77d8a50dd7"},
      {"quantum/d5", "3ea50c5c240a0fe4"},
      {"auction/d10", "925002f2a62642b8"},
      {"quantum/d10", "241786fb1d73e269"},
  });
  check.expect_pins("sec7_4.json", {
      {"c100", "e97eea5781f22191"},
      {"c110", "2fea726cef171b7c"},
      {"c120", "d46f1ab9074f02c2"},
      {"c130", "c71db1c2e7313eb4"},
      {"c140", "7b840fbf46338e0a"},
      {"c150", "bfa94810c901d628"},
      {"c160", "b31e882a034d2bc4"},
      {"w1", "eb4c91d840e09954"},
      {"w5", "bfdfa243714aaf6e"},
      {"w10", "9694d01f3e075548"},
      {"w20", "e97eea5781f22191"},
      {"w40", "eee18a636038fbb9"},
      {"w60", "5041484897abe42d"},
  });
  check.expect_pins("adversary_onoff.json", {
      {"onoff/none/duty0.3", "a2539694e7727f0d"},
      {"onoff/none/duty0.8", "0a96639168b8c789"},
      {"onoff/retry/duty0.3", "6a1755a8f56ca04d"},
      {"onoff/retry/duty0.8", "bb1218207cd06fd8"},
      {"onoff/auction/duty0.3", "8d0a754e6ba0c655"},
      {"onoff/auction/duty0.8", "86bfa42d2624e5c1"},
      {"onoff/quantum/duty0.3", "24cb5bc3bad9fb9d"},
      {"onoff/quantum/duty0.8", "402c5dd947851c35"},
  });
  check.expect_pins("adversary_defector.json", {
      {"defector/none", "5e100e6658db5be7"},
      {"defector/retry", "4fbf859546eb0dea"},
      {"defector/auction", "fa941c01f7264566"},
      {"defector/quantum", "ddc6610982e657a5"},
  });
  check.expect_pins("adversary_adaptive.json", {
      {"adaptive/none", "6a141ea5ae087ff5"},
      {"adaptive/retry", "319d10f18e988ba9"},
      {"adaptive/auction", "36c5b837ab2b7a86"},
      {"adaptive/quantum", "24f803a7c6aed43c"},
  });
  check.expect_pins("adversary_flashcrowd.json", {
      {"flash-crowd/none", "2c9bf568874bdd68"},
      {"flash-crowd/retry", "66c13048a70e8bfa"},
      {"flash-crowd/auction", "89a8fc8b4969276c"},
      {"flash-crowd/quantum", "e57aef79825c57e3"},
  });
  check.run();
}

TEST(HotPathFingerprint, ReconAndSwitcherSweepMatchesPerMemberStrategyPins) {
  // Captured while every pool member owned its own Strategy object, just
  // before the members of a group came to share one.
  PinCheck check;
  check.expect_pins("adversary_recon_switcher.json", {
      {"recon/auction", "99b5520ffc1da801"},
      {"recon/retry", "777e4f3baeacd505"},
      {"recon/none", "50ebfc21c68a4651"},
      {"recon/probes40", "ba0fd7f194dd933a"},
      {"switcher/auction", "07b7ce6e80ec7500"},
      {"switcher/quantum", "4984039f3c445b05"},
  });
  check.run();
  const std::vector<RunOutcome>& out = check.outcomes();
  ASSERT_EQ(out.size(), 6U);
  // The pins guard the per-member strategy state only if the attackers
  // refuse payments in the rows that ask them to pay.
  for (const std::size_t row : {0, 3, 4, 5}) {
    EXPECT_GT(out[row].result.groups[1].totals.payments_declined, 0) << out[row].label;
  }
}

TEST(HotPathFingerprint, DefenseSweepMatchesPerDefenseFrontEndPins) {
  // Captured from the per-defense front ends, each with its own copy of the
  // thinner plumbing, just before they came to share one skeleton.
  PinCheck check;
  check.expect_pins("defenses.json", {
      {"defenses/none", "7a7538be07fec866"},
      {"defenses/retry", "4d15487b791db24f"},
      {"defenses/auction", "262e1f7ed9fcca4e"},
      {"defenses/quantum", "051e5a9bc69dc2f9"},
      {"defenses/elastic", "1677cddc799bd4ed"},
      {"defenses/puzzle", "533102968d87e2e6"},
  });
  check.run();
  const std::vector<RunOutcome>& out = check.outcomes();
  ASSERT_EQ(out.size(), 6U);
  // The pins guard the defense-specific paths only if the rows take them.
  const auto counter = [&](std::size_t row, const char* name) {
    return out[row].result.thinner.counters.get(name);
  };
  EXPECT_GT(counter(3, "suspensions"), 0);
  EXPECT_GT(counter(3, "aborts"), 0);
  EXPECT_GT(counter(4, "elastic_scale_ups"), 0);
  EXPECT_GT(counter(5, "puzzle_admitted"), 0);
}

}  // namespace
}  // namespace speakup::exp
