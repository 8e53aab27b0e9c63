// Checks every checked-in scenario file from one run of it: each file's
// ExperimentResult fingerprints against its pins, and each paper file's
// report (`speakup report`, exp/report.hpp) against its golden under
// tests/golden/report/, byte for byte; report_test checks the auction_game
// files' goldens and the run half, write_report. The pass enumerates
// scenarios/*.json, so a new scenario file without pins, a "report" key
// without a golden, and a golden that no file prints all fail here.
// million_clients.json is left out for its 10^5-client cost. The story_*
// files also have their paper point checked from the same run.
//
// The pins guard behavior-invisibility: rewriting the event representation,
// the timer store, the TCP out-of-order tracker, the Link packet pipeline or
// the queue storage must not change a single simulated outcome.
// fingerprint() hashes every counter in the result INCLUDING
// events_executed, so even an extra or re-ordered event trips a pin. Each
// set was captured from the code *before* the refactor it guards. If a
// change legitimately alters simulation behavior, re-pin in the same commit
// that explains why. The goldens are the quick-mode stdout of the per-figure
// bench harnesses the reports replaced, so they pin every reducer's
// arithmetic and layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/theory.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_io.hpp"

namespace speakup::exp {
namespace {

namespace fs = std::filesystem;

const std::string kScenarioDir = SPEAKUP_SCENARIO_DIR;
const std::string kGoldenDir = kScenarioDir + "/../tests/golden/report/";

std::string hex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(fp));
  return buf;
}

std::string read(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// One row's fingerprint; each file's pins list its rows in file order.
struct Pin {
  std::string file;
  std::string label;
  std::string fingerprint;
};

const std::vector<Pin> kPins = {
    // Captured at PR 3 (seed event loop, pre-slab).
    {"smoke.json", "smoke/none", "5926ff42af7d304f"},
    {"smoke.json", "smoke/retry", "6f503a28a37defd5"},
    {"smoke.json", "smoke/auction", "058ae2081de114a0"},
    {"smoke.json", "smoke/quantum", "785972ef788a9750"},
    {"smoke.json", "smoke/auction-seeds/seed7", "058ae2081de114a0"},
    {"smoke.json", "smoke/auction-seeds/seed8", "9bf42045de308896"},
    // The fig8 grid: sustained bottleneck overflow, fast recovery and RTO on
    // every connection. Captured at PR 4 (binary heap, std::map OOO tracker),
    // before the timer wheel / 4-ary heap / interval-vector round.
    {"shared_bottleneck.json", "25/5", "ec056f4cfaef3dc3"},
    {"shared_bottleneck.json", "15/15", "b8da20a64b334756"},
    {"shared_bottleneck.json", "5/25", "159992d06766ed25"},
    // The fig9 grid: a saturated 1 Mbit/s bottleneck dropping continuously,
    // the deepest checked-in exercise of the TCP loss path. Captured at PR 4.
    {"lossy.json", "off/1KB", "a1aa978c57d87c4c"},
    {"lossy.json", "on/1KB", "3fa7ce9c1dee200e"},
    {"lossy.json", "off/2KB", "adb477255f4ffb88"},
    {"lossy.json", "on/2KB", "33a431b0afaface3"},
    {"lossy.json", "off/4KB", "7f93c0fd13ebd5a0"},
    {"lossy.json", "on/4KB", "82c44c174f4cb1a3"},
    {"lossy.json", "off/8KB", "5aaaff106ab83ead"},
    {"lossy.json", "on/8KB", "51d944df0f228e04"},
    {"lossy.json", "off/16KB", "864e879c8fed0f43"},
    {"lossy.json", "on/16KB", "8d5589d1d0d275bd"},
    {"lossy.json", "off/32KB", "17063f2284721d39"},
    {"lossy.json", "on/32KB", "072a4170164804a5"},
    {"lossy.json", "off/64KB", "f4b2720bc8af781b"},
    {"lossy.json", "on/64KB", "8d33a45b8935aaa1"},
    {"lossy.json", "off/100KB", "78c4b8f38eaabe4b"},
    {"lossy.json", "on/100KB", "6364491cbbfafbec"},
    // The paper and adversary sweeps, fig2.json through
    // adversary_flashcrowd.json: captured from the per-object client engine
    // at the commit before its deletion (`speakup run F.json`, fingerprint
    // column).
    {"fig2.json", "none/g5", "394094f0972c3569"},
    {"fig2.json", "none/g10", "7a193f94690a7c18"},
    {"fig2.json", "none/g15", "f32dfdaf1463bbe1"},
    {"fig2.json", "none/g20", "b04592af7b8282ad"},
    {"fig2.json", "none/g25", "124244302b701c7c"},
    {"fig2.json", "none/g30", "75a17c0f8bcdb217"},
    {"fig2.json", "none/g35", "f71a37e45517a8c0"},
    {"fig2.json", "none/g40", "1b4d52dc5d9a1fd2"},
    {"fig2.json", "none/g45", "481dc6e65e4e0932"},
    {"fig2.json", "auction/g5", "6f335bbf37db2641"},
    {"fig2.json", "auction/g10", "09000d9d2b83b004"},
    {"fig2.json", "auction/g15", "56c96be39fdf904a"},
    {"fig2.json", "auction/g20", "9212f4280dff918e"},
    {"fig2.json", "auction/g25", "72414884d0dd4eec"},
    {"fig2.json", "auction/g30", "8011d01ca78c5884"},
    {"fig2.json", "auction/g35", "dce3be147b04dff1"},
    {"fig2.json", "auction/g40", "7d3183e547ffc0f7"},
    {"fig2.json", "auction/g45", "8d07875d965084c1"},
    {"fig3.json", "none/c50", "5ffb69b1fb0f5c48"},
    {"fig3.json", "auction/c50", "b28e7fb99009273b"},
    {"fig3.json", "none/c100", "5b39a01c62a8c8a4"},
    {"fig3.json", "auction/c100", "0d052f6c6dee3dd9"},
    {"fig3.json", "none/c200", "e1886c66f413a78e"},
    {"fig3.json", "auction/c200", "a75fe11afa112a14"},
    {"fig4.json", "c50", "5acf529cab449404"},
    {"fig4.json", "c100", "eb35df4140eb11cb"},
    {"fig4.json", "c200", "26b55dcdb9d19bed"},
    {"fig5.json", "c50", "55cff30f569c7afb"},
    {"fig5.json", "c100", "6afa1cbe9e742a30"},
    {"fig5.json", "c200", "bc3be434020c50c4"},
    {"fig6.json", "hetero-bw", "49b9fcccb655039b"},
    {"fig7.json", "all-good", "2175a60f0dddfb82"},
    {"fig7.json", "all-bad", "76b8782043ee33df"},
    {"tab1.json", "row1", "f76d54815b093a35"},
    {"tab1.json", "row2/c110", "c1cc87facbd94f44"},
    {"tab1.json", "row2/c125", "2868921caab60dac"},
    {"tab1.json", "row2/c140", "77aad5d344a540ac"},
    {"tab1.json", "row2/c155", "643a068955a0d351"},
    {"tab1.json", "row4/off", "feef7ab29e5dbf49"},
    {"tab1.json", "row4/on", "db2f4f150c4d2502"},
    {"abl1.json", "retry/c50", "2ec07051291047d1"},
    {"abl1.json", "retry/c100", "7b950d8b4dd9e924"},
    {"abl1.json", "retry/c200", "1f9214c3db9e8ed5"},
    {"abl1.json", "auction/c50", "5ba2cfbb6cc32197"},
    {"abl1.json", "auction/c100", "e58ba244cd133765"},
    {"abl1.json", "auction/c200", "012bc0da63903e4a"},
    {"abl3.json", "25KB", "e333d547ac6c1152"},
    {"abl3.json", "100KB", "c84689f1829cce0c"},
    {"abl3.json", "1000KB", "84facdeca1f0d87c"},
    {"abl4.json", "auction/d1", "fc8f1211b7355fa9"},
    {"abl4.json", "quantum/d1", "e97a4eb61b777674"},
    {"abl4.json", "auction/d5", "476b6c77d8a50dd7"},
    {"abl4.json", "quantum/d5", "3ea50c5c240a0fe4"},
    {"abl4.json", "auction/d10", "925002f2a62642b8"},
    {"abl4.json", "quantum/d10", "241786fb1d73e269"},
    {"sec7_4.json", "c100", "e97eea5781f22191"},
    {"sec7_4.json", "c110", "2fea726cef171b7c"},
    {"sec7_4.json", "c120", "d46f1ab9074f02c2"},
    {"sec7_4.json", "c130", "c71db1c2e7313eb4"},
    {"sec7_4.json", "c140", "7b840fbf46338e0a"},
    {"sec7_4.json", "c150", "bfa94810c901d628"},
    {"sec7_4.json", "c160", "b31e882a034d2bc4"},
    {"sec7_4.json", "w1", "eb4c91d840e09954"},
    {"sec7_4.json", "w5", "bfdfa243714aaf6e"},
    {"sec7_4.json", "w10", "9694d01f3e075548"},
    {"sec7_4.json", "w20", "e97eea5781f22191"},
    {"sec7_4.json", "w40", "eee18a636038fbb9"},
    {"sec7_4.json", "w60", "5041484897abe42d"},
    {"adversary_onoff.json", "onoff/none/duty0.3", "a2539694e7727f0d"},
    {"adversary_onoff.json", "onoff/none/duty0.8", "0a96639168b8c789"},
    {"adversary_onoff.json", "onoff/retry/duty0.3", "6a1755a8f56ca04d"},
    {"adversary_onoff.json", "onoff/retry/duty0.8", "bb1218207cd06fd8"},
    {"adversary_onoff.json", "onoff/auction/duty0.3", "8d0a754e6ba0c655"},
    {"adversary_onoff.json", "onoff/auction/duty0.8", "86bfa42d2624e5c1"},
    {"adversary_onoff.json", "onoff/quantum/duty0.3", "24cb5bc3bad9fb9d"},
    {"adversary_onoff.json", "onoff/quantum/duty0.8", "402c5dd947851c35"},
    {"adversary_defector.json", "defector/none", "5e100e6658db5be7"},
    {"adversary_defector.json", "defector/retry", "4fbf859546eb0dea"},
    {"adversary_defector.json", "defector/auction", "fa941c01f7264566"},
    {"adversary_defector.json", "defector/quantum", "ddc6610982e657a5"},
    {"adversary_adaptive.json", "adaptive/none", "6a141ea5ae087ff5"},
    {"adversary_adaptive.json", "adaptive/retry", "319d10f18e988ba9"},
    {"adversary_adaptive.json", "adaptive/auction", "36c5b837ab2b7a86"},
    {"adversary_adaptive.json", "adaptive/quantum", "24f803a7c6aed43c"},
    {"adversary_flashcrowd.json", "flash-crowd/none", "2c9bf568874bdd68"},
    {"adversary_flashcrowd.json", "flash-crowd/retry", "66c13048a70e8bfa"},
    {"adversary_flashcrowd.json", "flash-crowd/auction", "89a8fc8b4969276c"},
    {"adversary_flashcrowd.json", "flash-crowd/quantum", "e57aef79825c57e3"},
    // Captured while every pool member owned its own Strategy object, just
    // before the members of a group came to share one.
    {"adversary_recon_switcher.json", "recon/auction", "99b5520ffc1da801"},
    {"adversary_recon_switcher.json", "recon/retry", "777e4f3baeacd505"},
    {"adversary_recon_switcher.json", "recon/none", "50ebfc21c68a4651"},
    {"adversary_recon_switcher.json", "recon/probes40", "ba0fd7f194dd933a"},
    {"adversary_recon_switcher.json", "switcher/auction", "07b7ce6e80ec7500"},
    {"adversary_recon_switcher.json", "switcher/quantum", "4984039f3c445b05"},
    // Captured from the per-defense front ends, each with its own copy of the
    // thinner plumbing, just before they came to share one skeleton.
    {"defenses.json", "defenses/none", "7a7538be07fec866"},
    {"defenses.json", "defenses/retry", "4d15487b791db24f"},
    {"defenses.json", "defenses/auction", "262e1f7ed9fcca4e"},
    {"defenses.json", "defenses/quantum", "051e5a9bc69dc2f9"},
    {"defenses.json", "defenses/elastic", "1677cddc799bd4ed"},
    {"defenses.json", "defenses/puzzle", "533102968d87e2e6"},
    // The paper's stories: each row equals the fingerprint of the hand-built
    // config of the C++ example the file replaced, captured by running those
    // configs at the commit before the examples were deleted.
    {"story_extortion.json", "none/bots10", "67b43482f0928f18"},
    {"story_extortion.json", "auction/bots10", "43e267670d5e2430"},
    {"story_extortion.json", "none/bots40", "5638c509833229f7"},
    {"story_extortion.json", "auction/bots40", "91e7dde866eb9371"},
    {"story_extortion.json", "none/bots120", "8713b0934c3ec07e"},
    {"story_extortion.json", "auction/bots120", "4c81f81f188f43fe"},
    {"story_flash_crowd.json", "crowd/none", "4cf05b8ce8d244aa"},
    {"story_flash_crowd.json", "crowd/auction", "9bef25ea62544550"},
    {"story_hard_queries.json", "auction", "d3fe223a09fcf92c"},
    {"story_hard_queries.json", "quantum", "5c2cf79e9a4ef113"},
    {"story_payment_proxy.json", "no-proxy", "c9a977c8c6df80af"},
    {"story_payment_proxy.json", "proxy", "e9377d2d90d7e82e"},
};

struct CheckedFile {
  ScenarioFile file;
  std::vector<RunOutcome> rows;  // its outcomes, with the file's own labels
};

struct Pass {
  std::map<std::string, CheckedFile> files;  // by file name
  std::set<std::string> auction_games;       // goldens checked in report_test
};

/// Every checked-in scenario file but million_clients.json, loaded once,
/// with all their rows run in one thread-pool pass (results are
/// bit-identical for any thread count). Rows are queued as "<file>:<label>"
/// since labels repeat across files.
const Pass& pass() {
  static const Pass pass = [] {
    Pass p;
    for (const fs::directory_entry& e : fs::directory_iterator(kScenarioDir)) {
      const std::string name = e.path().filename().string();
      if (e.path().extension() != ".json" || name == "million_clients.json") continue;
      const std::string kind = file_kind(e.path().string());
      if (kind == "auction_game") p.auction_games.insert(name);
      if (kind == "scenarios") p.files[name].file = load_scenario_file(e.path().string());
    }
    Runner runner;
    for (const auto& [name, f] : p.files) {
      for (const LabeledScenario& s : f.file.scenarios) runner.add(s.config, name + ":" + s.label);
    }
    auto out = runner.run_all().begin();
    for (auto& [name, f] : p.files) {
      for (const LabeledScenario& s : f.file.scenarios) {
        f.rows.push_back(*out++);
        f.rows.back().label = s.label;
      }
    }
    return p;
  }();
  return pass;
}

const std::vector<RunOutcome>& check_pins(const std::string& name) {
  const std::vector<RunOutcome>& rows = pass().files.at(name).rows;
  std::vector<const Pin*> pins;
  for (const Pin& pin : kPins) {
    if (pin.file == name) pins.push_back(&pin);
  }
  EXPECT_EQ(rows.size(), pins.size()) << name;
  for (std::size_t i = 0; i < std::min(rows.size(), pins.size()); ++i) {
    const RunOutcome& o = rows[i];
    EXPECT_EQ(o.label, pins[i]->label) << name << ": scenario order changed; re-check pins";
    EXPECT_TRUE(o.ok()) << name << " '" << o.label << "': " << o.error;
    EXPECT_EQ(hex(o.result.fingerprint()), pins[i]->fingerprint)
        << "behavior drift in " << name << " row '" << o.label
        << "' (events_executed=" << o.result.events_executed << ")";
  }
  return rows;
}

TEST(HotPathFingerprint, SmokeSweepMatchesPreRefactorPins) { check_pins("smoke.json"); }

TEST(HotPathFingerprint, SharedBottleneckSweepMatchesPreWheelPins) {
  check_pins("shared_bottleneck.json");
}

TEST(HotPathFingerprint, LossySweepMatchesPreWheelPins) { check_pins("lossy.json"); }

TEST(HotPathFingerprint, PaperAndAdversarySweepsMatchPerObjectEnginePins) {
  for (const char* name :
       {"fig2.json", "fig3.json", "fig4.json", "fig5.json", "fig6.json", "fig7.json",
        "tab1.json", "abl1.json", "abl3.json", "abl4.json", "sec7_4.json",
        "adversary_onoff.json", "adversary_defector.json", "adversary_adaptive.json",
        "adversary_flashcrowd.json"}) {
    check_pins(name);
  }
}

TEST(HotPathFingerprint, ReconAndSwitcherSweepMatchesPerMemberStrategyPins) {
  const std::vector<RunOutcome>& out = check_pins("adversary_recon_switcher.json");
  ASSERT_EQ(out.size(), 6U);
  // The pins guard the per-member strategy state only if the attackers
  // refuse payments in the rows that ask them to pay.
  for (const std::size_t row : {0, 3, 4, 5}) {
    EXPECT_GT(out[row].result.groups[1].totals.payments_declined, 0) << out[row].label;
  }
}

TEST(HotPathFingerprint, DefenseSweepMatchesPerDefenseFrontEndPins) {
  const std::vector<RunOutcome>& out = check_pins("defenses.json");
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

// Each story file must make its paper point from the rows pinned above.

// §9 bandwidth envy: a payment proxy for the DSL group (groups dsl, cable,
// bots) at least doubles its allocation and closes its gap to cable.
TEST(Story, PaymentProxyCuresBandwidthEnvy) {
  const std::vector<RunOutcome>& out = check_pins("story_payment_proxy.json");
  ASSERT_EQ(out.size(), 2U);
  const ExperimentResult& off = out[0].result;
  const ExperimentResult& on = out[1].result;
  const auto gap = [](const ExperimentResult& r) {
    return std::abs(r.groups[1].allocation - r.groups[0].allocation);
  };
  EXPECT_GE(on.groups[0].allocation, 2 * off.groups[0].allocation);
  EXPECT_LT(gap(on), gap(off));
  EXPECT_GT(on.proxy_payments_started, 0);
}

// §5: against 10x-hard queries the quantum auction at least doubles the
// good clients' share of server time over the flat auction.
TEST(Story, QuantumAuctionRestoresServerTimeAgainstHardQueries) {
  const std::vector<RunOutcome>& out = check_pins("story_hard_queries.json");
  ASSERT_EQ(out.size(), 2U);
  const ExperimentResult& flat = out[0].result;
  const ExperimentResult& quantum = out[1].result;
  EXPECT_GE(quantum.server_time_good, 2 * flat.server_time_good);
  EXPECT_GT(quantum.thinner.counters.get("suspensions"), 0);
}

// §9 flash crowd: speak-up serves more of an all-good overload than the
// undefended server, and more evenly across its clients.
TEST(Story, SpeakUpServesAFlashCrowdMoreAndMoreEvenly) {
  const std::vector<RunOutcome>& out = check_pins("story_flash_crowd.json");
  ASSERT_EQ(out.size(), 2U);
  const ExperimentResult& none = out[0].result;
  const ExperimentResult& auction = out[1].result;
  const auto min_over_max = [](const ExperimentResult& r) {
    const std::vector<std::int64_t>& served = r.groups[0].served_per_client;
    const auto [lo, hi] = std::minmax_element(served.begin(), served.end());
    return static_cast<double>(*lo) / static_cast<double>(*hi);
  };
  EXPECT_GT(auction.fraction_good_served, none.fraction_good_served);
  EXPECT_GT(min_over_max(auction), min_over_max(none));
}

// §1 extortion: under speak-up the customers stay served (>= 0.95) exactly
// when the server meets the §3.1 rule c >= g(1 + B/G) for the botnet.
TEST(Story, ExtortionBotnetsAreSurvivedWhenProvisionedForThem) {
  const std::vector<RunOutcome>& out = check_pins("story_extortion.json");
  ASSERT_EQ(out.size(), 6U);
  int provisioned = 0;
  int underprovisioned = 0;
  for (const RunOutcome& o : out) {
    if (o.config.defense != "auction") continue;
    const ClientGroupSpec& customers = o.config.groups[0];
    const ClientGroupSpec& bots = o.config.groups[1];
    const double cid = core::theory::ideal_provisioning(
        customers.count * customers.workload.lambda,
        customers.count * customers.access_bw.mbits_per_sec(),
        bots.count * bots.access_bw.mbits_per_sec());
    if (o.config.capacity_rps >= cid) {
      ++provisioned;
      EXPECT_GE(o.result.fraction_good_served, 0.95) << o.label;
    } else {
      ++underprovisioned;
      EXPECT_LT(o.result.fraction_good_served, 0.95) << o.label;
    }
  }
  EXPECT_EQ(provisioned, 2);
  EXPECT_EQ(underprovisioned, 1);
}

// A file's "report" key names its golden; an auction_game file has no such
// key and always prints the Theorem 3.1 table, golden-named by its file.
std::string golden_of(const std::string& auction_game) {
  return fs::path(auction_game).stem().string();
}

TEST(HotPathFingerprint, EveryScenarioFileHasPinsAndEveryReportAGolden) {
  std::set<std::string> printed;
  for (const auto& [name, f] : pass().files) {
    EXPECT_TRUE(std::any_of(kPins.begin(), kPins.end(),
                            [&](const Pin& pin) { return pin.file == name; }))
        << name << " has no fingerprint pins";
    if (!f.file.report.empty()) printed.insert(f.file.report);
  }
  for (const std::string& name : pass().auction_games) printed.insert(golden_of(name));
  for (const Pin& pin : kPins) {
    EXPECT_TRUE(pass().files.contains(pin.file)) << pin.file << " is pinned but did not run";
  }
  for (const std::string& report : printed) {
    EXPECT_TRUE(fs::exists(kGoldenDir + report + ".txt")) << report << " has no golden";
  }
  for (const fs::directory_entry& e : fs::directory_iterator(kGoldenDir)) {
    EXPECT_TRUE(printed.contains(e.path().stem().string()))
        << "golden " << e.path().filename() << " matches no scenario file";
  }
}

TEST(ReportGolden, EveryReportMatchesByteForByte) {
  ::unsetenv("SPEAKUP_FULL");  // the goldens are quick-mode output
  for (const auto& [name, f] : pass().files) {
    if (f.file.report.empty()) continue;
    std::ostringstream os;
    print_report(f.file, f.rows, os);
    EXPECT_EQ(os.str(), read(kGoldenDir + f.file.report + ".txt"))
        << "the report of " << name << " drifted from its golden";
  }
}

}  // namespace
}  // namespace speakup::exp
