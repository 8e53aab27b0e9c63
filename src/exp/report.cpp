#include "exp/report.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "core/auction_game.hpp"
#include "core/theory.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_io.hpp"
#include "stats/table.hpp"
#include "util/rng.hpp"

namespace speakup::exp {

namespace {

using Group = std::vector<const RunOutcome*>;
using Rows = std::span<const RunOutcome>;

bool full_mode() {
  const char* env = std::getenv("SPEAKUP_FULL");
  return env != nullptr && env[0] == '1';
}

[[gnu::format(printf, 1, 2)]] std::string strf(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

void banner(std::ostream& os, const char* title, const char* description, const char* note) {
  const std::string rule(78, '=');
  os << rule << "\n" << title << " — " << description << "\n"
     << "mode: " << (full_mode() ? "FULL (600 s)" : "QUICK")
     << " (set SPEAKUP_FULL=1 for the paper's 600 s runs)\n"
     << rule << "\n";
  if (*note != '\0') os << "paper: " << note << "\n\n";
}

/// The outcomes grouped by `key`: groups in first-seen order, each group in
/// outcome order. This is how a report finds its x-axis in what ran.
template <typename Key>
std::vector<Group> group_by(Rows rows, Key key) {
  std::vector<Group> groups;
  std::vector<decltype(key(rows.front()))> keys;
  for (const RunOutcome& o : rows) {
    const auto k = key(o);
    const std::size_t at = std::find(keys.begin(), keys.end(), k) - keys.begin();
    if (at == keys.size()) {
      keys.push_back(k);
      groups.emplace_back();
    }
    groups[at].push_back(&o);
  }
  return groups;
}

/// Fails the report when row `o` lacks `what`, which the reducer reads.
void require(bool has, const RunOutcome& o, const std::string& what) {
  if (!has) throw ScenarioError("row '" + o.label + "' has no " + what);
}

/// The result of the outcome in `group` that is `what` (per `pred`); a file
/// that ran none cannot fill this row.
template <typename Pred>
const ExperimentResult& pick(const Group& group, Pred pred, const char* what) {
  for (const RunOutcome* o : group) {
    if (pred(*o)) return o->result;
  }
  throw ScenarioError(std::string("no ") + what + " row next to '" + group.front()->label +
                      "'");
}

/// The result of the row labelled `label`.
const ExperimentResult& row(Rows rows, std::string_view label) {
  for (const RunOutcome& o : rows) {
    if (o.label == label) return o.result;
  }
  throw ScenarioError("no row '" + std::string(label) + "'");
}

/// Client group `i` of row `o`, as configured and as it fared.
struct GroupRow {
  const ClientGroupSpec& spec;
  const GroupResult& result;
};
GroupRow group(const RunOutcome& o, std::size_t i) {
  require(i < o.config.groups.size() && i < o.result.groups.size(), o,
          "client group " + std::to_string(i));
  return {o.config.groups[i], o.result.groups[i]};
}

double capacity(const RunOutcome& o) { return o.config.capacity_rps; }

/// Aggregate access bandwidth (bytes/s) of the scenario's clients of `cls`.
double class_bytes_per_sec(const ScenarioConfig& cfg, http::ClientClass cls) {
  double total = 0.0;
  for (const ClientGroupSpec& g : cfg.groups) {
    if (g.workload.cls == cls) total += g.count * g.access_bw.bytes_per_sec();
  }
  return total;
}

/// Group i's bandwidth-proportional ideal share of the server.
double proportional_share(const ScenarioConfig& cfg, std::size_t i) {
  std::int64_t total = 0;
  for (const ClientGroupSpec& g : cfg.groups) total += g.count * g.access_bw.bits_per_sec();
  const ClientGroupSpec& g = cfg.groups.at(i);
  return static_cast<double>(g.count * g.access_bw.bits_per_sec()) /
         static_cast<double>(total);
}

/// f = G/(G+B): the good clients' share of all client bandwidth, which is
/// also their ideal (bandwidth-proportional) allocation.
double good_share(const RunOutcome& o) {
  return core::theory::ideal_good_allocation(
      class_bytes_per_sec(o.config, http::ClientClass::kGood),
      class_bytes_per_sec(o.config, http::ClientClass::kBad));
}

void fig2(Rows rows, std::ostream& os) {
  const auto defense = [](const char* name) {
    return [name](const RunOutcome& o) { return o.config.defense == name; };
  };
  stats::Table table({"f=G/(G+B)", "without-speakup", "with-speakup", "ideal"});
  for (const Group& point : group_by(rows, good_share)) {
    const double f = good_share(*point.front());
    table.row()
        .add(f, 2)
        .add(pick(point, defense("none"), "\"none\"").allocation_good, 3)
        .add(pick(point, defense("auction"), "\"auction\"").allocation_good, 3)
        .add(core::theory::ideal_good_allocation(f, 1.0 - f), 3);
  }
  table.print(os);
}

void fig3(Rows rows, std::ostream& os) {
  stats::Table table({"capacity", "defense", "alloc(good)", "alloc(bad)",
                      "frac-good-served", "ideal-alloc(good)"});
  for (const Group& point : group_by(rows, capacity)) {
    for (const RunOutcome* o : point) {
      table.row()
          .add(static_cast<std::int64_t>(o->config.capacity_rps))
          .add(o->config.defense == "none" ? "OFF" : "ON")
          .add(o->result.allocation_good, 3)
          .add(o->result.allocation_bad, 3)
          .add(o->result.fraction_good_served, 3)
          .add(good_share(*o), 3);
    }
  }
  table.print(os);
}

void fig4(Rows rows, std::ostream& os) {
  stats::Table table({"capacity", "mean-payment-s", "p90-payment-s", "samples"});
  for (const RunOutcome& o : rows) {
    const stats::SampleSet& t = o.result.thinner.payment_time_good;
    table.row()
        .add(static_cast<std::int64_t>(o.config.capacity_rps))
        .add(t.mean(), 3)
        .add(t.percentile(0.9), 3)
        .add(static_cast<std::int64_t>(t.count()));
  }
  table.print(os);
}

void fig5(Rows rows, std::ostream& os) {
  stats::Table table({"capacity", "price-good-KB", "price-bad-KB", "upper-bound-KB"});
  for (const RunOutcome& o : rows) {
    const double upper = core::theory::average_price_bytes(
        class_bytes_per_sec(o.config, http::ClientClass::kGood),
        class_bytes_per_sec(o.config, http::ClientClass::kBad), o.config.capacity_rps);
    table.row()
        .add(static_cast<std::int64_t>(o.config.capacity_rps))
        .add(o.result.thinner.price_good.mean() / 1000.0, 1)
        .add(o.result.thinner.price_bad.mean() / 1000.0, 1)
        .add(upper / 1000.0, 1);
  }
  table.print(os);
}

void fig6(Rows rows, std::ostream& os) {
  stats::Table table({"category", "bandwidth-Mbit/s", "observed-alloc", "ideal-alloc"});
  for (const RunOutcome& o : rows) {
    for (std::size_t i = 0; i < o.result.groups.size(); ++i) {
      table.row()
          .add(o.result.groups[i].label)
          .add(o.config.groups[i].access_bw.mbits_per_sec(), 1)
          .add(o.result.groups[i].allocation, 3)
          .add(proportional_share(o.config, i), 3);
    }
  }
  table.print(os);
}

// One column per scenario (all-good, all-bad), one row per RTT category.
void fig7(Rows rows, std::ostream& os) {
  std::vector<std::string> headers = {"RTT-ms"};
  for (const RunOutcome& o : rows) headers.push_back(o.label + "-alloc");
  headers.push_back("ideal");
  stats::Table table(std::move(headers));
  const ScenarioConfig& cfg = rows.front().config;
  for (std::size_t i = 0; i < cfg.groups.size(); ++i) {
    const Duration one_way = cfg.groups[i].access_delay + cfg.thinner_delay;
    table.row().add(static_cast<std::int64_t>(2 * one_way.ns() / 1'000'000));
    for (const RunOutcome& o : rows) table.add(group(o, i).result.allocation, 3);
    table.add(proportional_share(cfg, i), 3);
  }
  table.print(os);
}

// Groups 2 and 3 are the good and bad clients behind the bottleneck l.
void fig8(Rows rows, std::ostream& os) {
  stats::Table table({"mix(bn-good/bn-bad)", "bn-share-good", "bn-share-bad",
                      "ideal-good", "ideal-bad", "frac-bn-good-served"});
  for (const RunOutcome& o : rows) {
    const GroupRow bn_good = group(o, 2);
    const GroupRow bn_bad = group(o, 3);
    const int good = bn_good.spec.count;
    const int bad = bn_bad.spec.count;
    const double bn_good_alloc = bn_good.result.allocation;
    const double bn_bad_alloc = bn_bad.result.allocation;
    const double bn_total = bn_good_alloc + bn_bad_alloc;
    table.row()
        .add(std::to_string(good) + "/" + std::to_string(bad))
        .add(bn_total > 0 ? bn_good_alloc / bn_total : 0.0, 3)
        .add(bn_total > 0 ? bn_bad_alloc / bn_total : 0.0, 3)
        .add(static_cast<double>(good) / (good + bad), 3)
        .add(static_cast<double>(bad) / (good + bad), 3)
        .add(bn_good.result.totals.fraction_served(), 3);
  }
  table.print(os);
}

// Each file size ran twice: "off" without speak-up clients, "on" with them.
void fig9(Rows rows, std::ostream& os) {
  const auto file_size = [](const RunOutcome& o) {
    require(o.config.collateral.has_value(), o, "collateral download");
    return o.config.collateral->file_size;
  };
  const auto speakup_off = [](const RunOutcome& o) { return o.config.groups.empty(); };
  const auto speakup_on = [](const RunOutcome& o) { return !o.config.groups.empty(); };
  stats::Table table({"size-KB", "no-speakup-mean-s", "no-speakup-sd", "speakup-mean-s",
                      "speakup-sd", "inflation"});
  for (const Group& point : group_by(rows, file_size)) {
    const stats::SampleSet& off =
        pick(point, speakup_off, "speak-up-off").collateral_latencies;
    const stats::SampleSet& on = pick(point, speakup_on, "speak-up-on").collateral_latencies;
    table.row()
        .add(file_size(*point.front()) / 1000)
        .add(off.mean(), 3)
        .add(off.stddev(), 3)
        .add(on.mean(), 3)
        .add(on.stddev(), 3)
        .add(off.mean() > 0 ? on.mean() / off.mean() : 0.0, 2);
  }
  table.print(os);
}

// Two sweeps: "c<capacity>" labels look for the capacity that serves all
// good demand, the others sweep the bad clients' window w at c = 100.
void sec7_4(Rows rows, std::ostream& os) {
  const double c_id = core::theory::ideal_provisioning(50.0, 50.0, 50.0);
  os << strf("c_id (ideal provisioning, G=B, g=50/s): %.0f req/s\n\n", c_id);
  stats::Table sweep({"capacity", "frac-good-served", "alloc(good)", "verdict"});
  stats::Table wsweep({"bad-window-w", "alloc(bad)", "alloc(good)"});
  double satisfied_at = -1.0;
  for (const RunOutcome& o : rows) {
    const ExperimentResult& r = o.result;
    if (o.label[0] != 'c') {
      wsweep.row()
          .add(static_cast<std::int64_t>(group(o, 1).spec.workload.window))
          .add(r.allocation_bad, 3)
          .add(r.allocation_good, 3);
      continue;
    }
    // "Fully served" tolerates a sliver of backlog-expiry noise.
    const bool ok = r.fraction_good_served >= 0.99;
    if (ok && satisfied_at < 0) satisfied_at = o.config.capacity_rps;
    sweep.row()
        .add(static_cast<std::int64_t>(o.config.capacity_rps))
        .add(r.fraction_good_served, 3)
        .add(r.allocation_good, 3)
        .add(ok ? "all good demand served" : "good demand NOT met");
  }
  sweep.print(os);
  if (satisfied_at > 0) {
    os << strf("\n-> all good demand served at c = %.0f (%.0f%% above c_id; paper: +15%%)\n\n",
               satisfied_at, (satisfied_at / c_id - 1.0) * 100.0);
  } else {
    os << "\n-> good demand not fully served in the swept range\n\n";
  }
  wsweep.print(os);
}

void tab1(Rows rows, std::ostream& os) {
  os << strf("1. proportional allocation:   alloc(good) = %.2f for G=B (ideal 0.50,\n"
             "   paper ~0.42-0.48 measured)  [details: fig2, fig6, fig7]\n",
             row(rows, "row1").allocation_good);

  // Row 2: the first "row2/*" capacity, in file order, that serves all
  // good demand.
  double satisfied_at = -1.0;
  double swept_max = 0.0;
  for (const RunOutcome& o : rows) {
    if (o.label.rfind("row2/", 0) != 0) continue;
    swept_max = std::max(swept_max, o.config.capacity_rps);
    if (satisfied_at < 0 && o.result.fraction_good_served >= 0.99) {
      satisfied_at = o.config.capacity_rps;
    }
  }
  if (satisfied_at > 0) {
    os << strf("2. provisioning above ideal:  all good demand served at c = %.0f\n"
               "   (+%.0f%% over c_id = 100; paper: +15%%)  [details: sec7_4]\n",
               satisfied_at, satisfied_at - 100.0);
  } else {
    os << strf("2. provisioning above ideal:  > +%.0f%% in this quick run  [details: sec7_4]\n",
               swept_max - 100.0);
  }

  // Row 3 is the real thinner's CPU speed, which a simulation cannot have:
  // the simulated thinner spends no CPU per byte, so only its link bounds
  // the sink rate.
  os << "3. thinner capacity:          paper: 1451 Mbit/s at 1500 B, 379 Mbit/s at 120 B "
        "(3 GHz Xeon);\n   a simulated thinner costs no CPU per byte, so only its link "
        "bounds its sink rate  [host speed: micro_hotpath thinner_sink]\n";

  const double off = row(rows, "row4/off").collateral_latencies.mean();
  const double on = row(rows, "row4/on").collateral_latencies.mean();
  os << strf("4. bottleneck crowding:       8 KB downloads inflate %.1fx when sharing\n"
             "   a 1 Mbit/s link with speak-up traffic (paper: ~4.5-6x)  [details: "
             "fig8, fig9]\n",
             off > 0 ? on / off : 0.0);
}

void abl1(Rows rows, std::ostream& os) {
  stats::Table table({"capacity", "mechanism", "alloc(good)", "price-good", "price-bad",
                      "price-unit"});
  for (const Group& point : group_by(rows, capacity)) {
    for (const RunOutcome* o : point) {
      const ExperimentResult& r = o->result;
      const bool retry = o->config.defense == "retry";
      table.row()
          .add(static_cast<std::int64_t>(o->config.capacity_rps))
          .add(retry ? "retries (3.2)" : "auction (3.3)")
          .add(r.allocation_good, 3)
          .add(retry ? r.thinner.retries_good.mean() : r.thinner.price_good.mean() / 1000.0,
               1)
          .add(retry ? r.thinner.retries_bad.mean() : r.thinner.price_bad.mean() / 1000.0,
               1)
          .add(retry ? "retries/req" : "KB/req");
    }
  }
  table.print(os);
}

// Group 0 sits at LAN RTT, group 1 at a long RTT; both send the swept POST.
void abl3(Rows rows, std::ostream& os) {
  stats::Table table({"post-size-KB", "lan-rtt-alloc", "long-rtt-alloc",
                      "long-rtt-share-of-ideal"});
  for (const RunOutcome& o : rows) {
    const GroupRow lan = group(o, 0);
    const double long_rtt = group(o, 1).result.allocation;
    table.row()
        .add(lan.spec.workload.post_size / 1000)
        .add(lan.result.allocation, 3)
        .add(long_rtt, 3)
        .add(long_rtt / proportional_share(o.config, 1), 3);
  }
  table.print(os);
}

// Group 1 holds the attackers; the x-axis is their request difficulty.
void abl4(Rows rows, std::ostream& os) {
  const auto difficulty = [](const RunOutcome& o) {
    return group(o, 1).spec.workload.difficulty;
  };
  stats::Table table({"bad-difficulty", "mechanism", "server-time-good", "server-time-bad",
                      "suspensions"});
  for (const Group& point : group_by(rows, difficulty)) {
    for (const RunOutcome* o : point) {
      const bool quantum = o->config.defense == "quantum";
      table.row()
          .add(difficulty(*o))
          .add(quantum ? "quantum (5)" : "flat (3.3)")
          .add(o->result.server_time_good, 3)
          .add(o->result.server_time_bad, 3)
          .add(quantum ? o->result.thinner.counters.get("suspensions") : 0);
    }
  }
  table.print(os);
}

/// Ablation A5, the auction_game file's report: the measured fraction of
/// auctions the eps-bandwidth client wins against each adversary, next to
/// the Theorem 3.1 bounds.
void theorem31(const AuctionGameSpec& spec, std::ostream& os) {
  banner(os, "Ablation A5", "Theorem 3.1: service fraction vs eps/2 bound",
         "every adversary strategy leaves the eps-bandwidth client at least "
         "~eps/2 of the service; the reactive outbidder approaches the bound");
  const int ticks = full_mode() ? spec.ticks_full : spec.ticks_quick;
  util::RngStream rng(spec.seed, spec.stream);
  stats::Table table({"eps", "delta", "strategy", "measured", "eps/(2-eps)",
                      "jitter-bound"});
  for (const double eps : spec.eps) {
    for (const double delta : spec.delta) {
      for (const std::string& name : spec.adversaries) {
        table.row()
            .add(eps, 2)
            .add(delta, 1)
            .add(name)
            .add(core::run_auction_game(eps, delta, ticks, rng, core::adversary_fn(name)), 4)
            .add(core::theory::theorem31_service_fraction(eps), 4)
            .add(core::theory::theorem31_service_fraction_jitter(eps, delta), 4);
      }
    }
  }
  table.print(os);
}

/// SPEAKUP_FULL=1 rules: how one scenario stretches to paper length.
void paper_duration(LabeledScenario& s) { s.config.duration = Duration::seconds(600.0); }

// The file carries the quick sizes (40 downloads, 240 s); full mode restores
// the paper's 100 downloads and the matching window.
void fig9_full(LabeledScenario& s) {
  if (s.config.collateral) s.config.collateral->downloads = 100;
  paper_duration(s);
}

// Rows 1 and 2 stretch to 600 s; row 4's bottleneck scenarios keep their
// fixed 90 s window.
void tab1_full(LabeledScenario& s) {
  if (s.label.rfind("row4", 0) != 0) paper_duration(s);
}

struct Reducer {
  const char* name;
  const char* title;
  const char* description;
  const char* note;  // the paper's expectation; "" prints no "paper:" line
  void (*print)(Rows, std::ostream&);
  void (*stretch)(LabeledScenario&) = paper_duration;
};

constexpr Reducer kReducers[] = {
    {"fig2", "Figure 2", "server allocation vs good clients' bandwidth fraction",
     "the speak-up series hugs the ideal line (good clients capture ~f of the "
     "server); without speak-up, bad clients at lambda=40, w=20 capture far more",
     fig2},
    {"fig3", "Figure 3", "allocation and fraction of good requests served vs capacity",
     "for c = 50 and 100 the ON allocation is roughly proportional to aggregate "
     "bandwidths (~0.5/0.5); for c = 200 all good requests are served",
     fig3},
    {"fig4", "Figure 4", "payment time of served good requests vs capacity",
     "mean payment time shrinks as capacity grows; at c = 200 it is near zero "
     "(paper: ~1 s mean at c = 50, ~0.6 s at c = 100, ~0 at c = 200)",
     fig4},
    {"fig5", "Figure 5", "average price (KBytes/request) vs capacity",
     "when overloaded (c = 50, 100) the price sits near but below the upper "
     "bound (G+B)/c; when lightly loaded (c = 200) good clients pay ~0",
     fig5},
    {"fig6", "Figure 6", "per-category server allocation vs client bandwidth",
     "allocation per category is close to the proportional ideal "
     "(category i with 0.5*i Mbit/s gets ~i/15 of the server)",
     fig6},
    {"fig7", "Figure 7", "per-category server allocation vs client RTT",
     "all-good: long-RTT categories fall below the 0.2 ideal (no category "
     "below ~half or above ~double); all-bad: allocation stays ~flat",
     fig7},
    {"fig8", "Figure 8", "good and bad clients sharing a bottleneck link",
     "the actual split of the bottleneck service is worse for good clients "
     "than the proportional ideal because bad clients 'hog' l with many "
     "concurrent connections",
     fig8},
    {"fig9", "Figure 9", "HTTP download latency across a shared bottleneck",
     "download times inflate by ~6x for a 1 KB transfer and ~4.5x for 64 KB "
     "when speak-up traffic shares the bottleneck (a deliberately pessimistic "
     "configuration)",
     fig9, fig9_full},
    {"sec7_4", "Section 7.4", "empirical adversarial advantage",
     "all good demand is satisfied at c ~ 15% above the ideal c_id; "
     "bad-client window w = 20 is the (near-)pessimal choice",
     sec7_4},
    {"tab1", "Table 1", "summary of main evaluation results", "", tab1, tab1_full},
    {"abl1", "Ablation A1", "random-drops/retries (§3.2) vs virtual auction (§3.3)",
     "both mechanisms should allocate the overloaded server roughly in "
     "proportion to bandwidth (ideal 0.5 here); prices emerge in retries "
     "per request (§3.2) and bytes per request (§3.3)",
     abl1},
    {"abl3", "Ablation A3", "payment POST size vs RTT (quiescence overhead)",
     "with 1 MB POSTs (the paper's choice) the long-RTT group stays near its "
     "proportional share; small POSTs multiply the 2-RTT gaps and slow-start "
     "ramps, taxing long-RTT clients",
     abl3},
    {"abl4", "Ablation A4", "flat auction (§3.3) vs quantum auction (§5)",
     "under a hard-request-only attack the flat auction cedes most server "
     "time to attackers; the quantum auction restores the bandwidth-"
     "proportional time split (~0.5 here)",
     abl4},
};

const Reducer* find_reducer(std::string_view name) {
  for (const Reducer& r : kReducers) {
    if (name == r.name) return &r;
  }
  return nullptr;
}

/// The reducer `file`'s "report" key names; `where` prefixes the diagnostic.
const Reducer& reducer_of(const ScenarioFile& file, const std::string& where) {
  const Reducer* r = find_reducer(file.report);
  if (r == nullptr) {
    throw ScenarioError(where + "no \"report\" key names the reducer to print (known: " +
                        report_names() + ")");
  }
  return *r;
}

}  // namespace

bool is_report_name(std::string_view name) { return find_reducer(name) != nullptr; }

std::string report_names() {
  std::string out;
  for (const Reducer& r : kReducers) out += (out.empty() ? "" : ", ") + std::string(r.name);
  return out;
}

void write_report(const std::string& path, int jobs, std::ostream& os) {
  const std::string kind = file_kind(path);
  if (kind == "auction_game") {
    theorem31(load_auction_game_file(path), os);
    return;
  }
  if (kind != "scenarios") {
    throw ScenarioError(path + ": a " + kind +
                        " spec has no report (report takes scenario files and "
                        "auction_game grids)");
  }
  ScenarioFile file = load_scenario_file(path);
  const Reducer& r = reducer_of(file, path + ": ");
  if (full_mode()) {
    for (LabeledScenario& s : file.scenarios) r.stretch(s);
  }
  Runner runner;
  file.queue_on(runner);
  print_report(file, runner.run_all(jobs), os);
}

void print_report(const ScenarioFile& file, std::span<const RunOutcome> outcomes,
                  std::ostream& os) {
  const Reducer& r = reducer_of(file, "");
  for (const RunOutcome& o : outcomes) {
    if (!o.ok()) throw std::runtime_error("scenario '" + o.label + "' failed: " + o.error);
  }
  std::ostringstream body;  // a report that cannot be reduced prints nothing
  try {
    if (outcomes.empty()) throw ScenarioError("no rows ran");
    r.print(outcomes, body);
  } catch (const ScenarioError& e) {
    throw ScenarioError(std::string(r.name) + " report: " + e.what());
  }
  banner(os, r.title, r.description, r.note);
  os << body.str();
}

}  // namespace speakup::exp
