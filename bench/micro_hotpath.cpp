// Hot-path microbenchmarks: events/sec through sim::EventLoop and the
// net::Link packet pipeline, plus wall-seconds per simulated-second on the
// checked-in smoke scenario. This is the harness behind BENCH_hotpath.json —
// the repo's perf trajectory for the ROADMAP's "Faster hot path" item.
//
// Usage:
//   micro_hotpath                         # human-readable table
//   micro_hotpath --json out.json         # also write machine-readable JSON
//   micro_hotpath --check BENCH_hotpath.json [--tolerance 0.25]
//                                         # exit 1 if any bench regresses
//                                         # >tolerance vs the baseline file
//   micro_hotpath --repeat N              # best-of-N (default 3)
//
// Benches:
//   timer_churn      self-rescheduling timer chains (pure schedule+fire)
//   cancel_heavy     retry-timer pattern: schedule timeouts that are almost
//                    always cancelled before firing (tombstone pressure)
//   packet_pipeline  packets ping-ponging across a Link (serialize +
//                    propagate + deliver per hop)
//   loss_recovery    2048 TCP bulk transfers crushing an oversubscribed
//                    bottleneck: sustained queue loss, fast recovery, RTO
//                    backoff, and a per-ack RTO re-arm on every flight
//   thinner_sink     Table 1 row 3's rig: 32 payers streaming payment
//                    bytes into an auction thinner, simulation only
//   million_clients  scenarios/million_clients.json: 10^5 pooled clients
//                    (client::ClientPool engine), simulation only
//   smoke_scenario   full scenarios/smoke.json sweep, serial (end to end)
//
// ops_per_sec means executed events/sec except for cancel_heavy, where it
// counts schedule+cancel operations (the events mostly never fire).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/auction_thinner.hpp"
#include "exp/experiment.hpp"
#include "exp/scenario_io.hpp"
#include "http/message_stream.hpp"
#include "net/network.hpp"
#include "sim/event_loop.hpp"
#include "transport/host.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace speakup {
namespace {

using Clock = std::chrono::steady_clock;

struct BenchResult {
  std::string name;
  std::string ops_kind;      // what one "op" is
  double ops = 0;            // per run
  double wall_seconds = 0;   // best (fastest) run
  double sim_seconds = 0;    // simulated time covered (0 when meaningless)
  [[nodiscard]] double ops_per_sec() const { return ops / wall_seconds; }
};

/// Runs `body` `repeat` times and keeps the fastest wall time (standard
/// microbench practice: the minimum is the least noisy estimator).
template <typename F>
BenchResult best_of(const std::string& name, const std::string& ops_kind, int repeat, F body) {
  BenchResult best;
  best.name = name;
  best.ops_kind = ops_kind;
  for (int r = 0; r < repeat; ++r) {
    BenchResult cur;
    cur.name = name;
    cur.ops_kind = ops_kind;
    const auto t0 = Clock::now();
    body(cur);
    cur.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    if (r == 0 || cur.wall_seconds < best.wall_seconds) best = cur;
  }
  return best;
}

// --- timer_churn: K chains, each firing and rescheduling itself ----------

BenchResult bench_timer_churn(int repeat) {
  constexpr int kChains = 64;
  constexpr std::int64_t kTotalEvents = 2'000'000;
  return best_of("timer_churn", "events_fired", repeat, [](BenchResult& out) {
    sim::EventLoop loop;
    std::int64_t fired = 0;
    // Each chain reschedules itself 1 us out until the quota is met. The
    // loop stores a pointer to the chain's std::function, not the function.
    std::function<void()> chain = [&loop, &fired, &chain] {
      if (++fired >= kTotalEvents) return;
      loop.schedule(Duration::micros(1), [&chain] { chain(); });
    };
    for (int c = 0; c < kChains; ++c) loop.schedule(Duration::micros(1), [&chain] { chain(); });
    loop.run();
    out.ops = static_cast<double>(fired);
    out.sim_seconds = loop.now().sec();
  });
}

// --- cancel_heavy: retry timers that almost never fire -------------------

BenchResult bench_cancel_heavy(int repeat) {
  constexpr int kTimersPerTick = 8;
  constexpr std::int64_t kTicks = 120'000;
  return best_of("cancel_heavy", "schedule_or_cancel_ops", repeat, [](BenchResult& out) {
    sim::EventLoop loop;
    std::int64_t ops = 0;
    std::int64_t ticks = 0;
    std::vector<sim::EventId> armed;
    std::function<void()> driver = [&loop, &ops, &ticks, &armed, &driver] {
      // Cancel the previous tick's timeouts (the request "completed")...
      for (sim::EventId& id : armed) {
        loop.cancel(id);
        ++ops;
      }
      armed.clear();
      // ...and arm fresh ones 10 ms out, as a request pipeline would.
      for (int i = 0; i < kTimersPerTick; ++i) {
        armed.push_back(loop.schedule(Duration::millis(10), [] {}));
        ++ops;
      }
      if (++ticks < kTicks) {
        loop.schedule(Duration::micros(1), [&driver] { driver(); });
        ++ops;
      }
    };
    loop.schedule(Duration::micros(1), [&driver] { driver(); });
    loop.run();
    out.ops = static_cast<double>(ops);
    out.sim_seconds = loop.now().sec();
  });
}

// --- packet_pipeline: ping-pong across one link --------------------------

class PingPong : public net::Node {
 public:
  PingPong(net::Network& net, net::NodeId id, std::string name)
      : net::Node(net, id, std::move(name)) {}

  void on_packet(net::Packet p) override {
    ++received_;
    if (stop_) return;
    network().forward(id(), net::make_data_packet(id(), 1, p.src, 1, 0, 1000));
  }

  void stop() { stop_ = true; }
  [[nodiscard]] std::int64_t received() const { return received_; }

 private:
  std::int64_t received_ = 0;
  bool stop_ = false;
};

BenchResult bench_packet_pipeline(int repeat) {
  constexpr int kInFlight = 16;
  constexpr double kSimSeconds = 30.0;
  return best_of("packet_pipeline", "events_fired", repeat, [](BenchResult& out) {
    sim::EventLoop loop;
    net::Network net(loop);
    auto& a = net.add_node<PingPong>("a");
    auto& b = net.add_node<PingPong>("b");
    net.connect(a, b, net::LinkSpec{Bandwidth::gbps(10.0), Duration::micros(50), 10'000'000});
    net.build_routes();
    for (int i = 0; i < kInFlight; ++i) {
      net.forward(a.id(), net::make_data_packet(a.id(), 1, b.id(), 1, 0, 1000));
    }
    loop.run_until(SimTime::zero() + Duration::seconds(kSimSeconds));
    a.stop();
    b.stop();
    loop.run();  // drain in-flight packets so the loop ends empty
    out.ops = static_cast<double>(loop.executed_events());
    out.sim_seconds = kSimSeconds;
  });
}

// --- loss_recovery: TCP under sustained loss -----------------------------
//
// Exercises the paths the other benches miss: the out-of-order interval
// tracker (every drop leaves a hole at the receiver), fast retransmit /
// recovery, RTO firing with exponential backoff, and — on every single
// ack — an RTO timer re-arm (cancel + schedule ~200 ms out). 2048
// connections keep a large pending-RTO population alive the whole run,
// which is what separates an O(1) timer structure from an O(log n) one:
// a heap pays for that population on every push, the wheel does not.

BenchResult bench_loss_recovery(int repeat) {
  constexpr int kConns = 2048;
  constexpr double kSimSeconds = 20.0;
  BenchResult best;
  best.name = "loss_recovery";
  best.ops_kind = "events_fired";
  // Unlike the other benches, topology construction here is material
  // (2048 hosts and links) and is not what this bench measures, so each
  // run builds first and times only the simulation.
  for (int r = 0; r < repeat; ++r) {
    sim::EventLoop loop;
    net::Network net(loop);
    auto& server = net.add_node<transport::Host>("server");
    auto& sw = net.add_switch("core");
    // Heavily oversubscribed bottleneck with a shallow queue: the senders
    // could generate >1 Gbit/s against 100 Mbit/s of service.
    net.connect(sw, server,
                net::LinkSpec{Bandwidth::mbps(100.0), Duration::millis(5), 30'000});
    std::vector<transport::Host*> clients;
    clients.reserve(kConns);
    for (int i = 0; i < kConns; ++i) {
      auto& c = net.add_node<transport::Host>("c" + std::to_string(i));
      net.connect(c, sw, net::LinkSpec{Bandwidth::mbps(10.0), Duration::millis(1), 48'000});
      clients.push_back(&c);
    }
    net.build_routes();
    server.listen(80, [](transport::TcpConnection&) {});
    for (auto* c : clients) c->connect(server.id(), 80).write(megabytes(1000));
    const auto t0 = Clock::now();
    loop.run_until(SimTime::zero() + Duration::seconds(kSimSeconds));
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    if (r == 0 || wall < best.wall_seconds) {
      best.wall_seconds = wall;
      best.ops = static_cast<double>(loop.executed_events());
      best.sim_seconds = kSimSeconds;
    }
  }
  return best;
}

// --- thinner_sink: payers streaming payment into an auction thinner ------
//
// Table 1 row 3 (§7.1): the paper's real thinner sinks 1451 Mbit/s of
// payment on a 3 GHz Xeon. The simulated thinner spends no CPU per byte, so
// the report cannot reproduce that figure; this case tracks how fast the
// simulator carries the same load instead. 32 payers on 200 Mbit/s lines
// stream effectively endless POSTs (default MSS) into an auction thinner
// whose server never finishes, so every byte they send is payment. Each run
// builds the rig and plays the 1 s warm-up (handshakes, full pipes) untimed,
// then times a fixed span of simulated time, so every run fires the same
// events.

BenchResult bench_thinner_sink(int repeat) {
  constexpr int kPayers = 32;
  constexpr double kWarmupSeconds = 1.0;
  constexpr double kSimSeconds = 1.0;
  BenchResult best;
  best.name = "thinner_sink";
  best.ops_kind = "events_fired";
  for (int r = 0; r < repeat; ++r) {
    sim::EventLoop loop;
    net::Network net(loop);
    auto& sw = net.add_switch("sw");
    auto& thinner_host = net.add_node<transport::Host>("thinner");
    net.connect(thinner_host, sw,
                net::LinkSpec{Bandwidth::gbps(100.0), Duration::micros(100), 64'000'000});
    core::FrontEndConfig tc;
    tc.capacity_rps = 0.001;  // the server never finishes: everyone pays
    core::AuctionThinner thinner(thinner_host, tc, util::RngStream(1, "srv"));
    std::vector<transport::Host*> payers;
    for (int i = 0; i < kPayers; ++i) {
      auto& h = net.add_node<transport::Host>("payer" + std::to_string(i));
      net.connect(h, sw, net::LinkSpec{Bandwidth::mbps(200.0), Duration::micros(200), 1'000'000});
      payers.push_back(&h);
    }
    net.build_routes();
    // Each payer sends one request (the first occupies the server, the
    // rest contend) and streams an endless POST on its payment channel.
    std::vector<std::unique_ptr<http::MessageStream>> streams;
    for (std::size_t i = 0; i < payers.size(); ++i) {
      const std::uint64_t id = i + 1;
      auto req = std::make_unique<http::MessageStream>(payers[i]->connect(thinner_host.id(), 80));
      req->send(http::Message{
          .type = http::MessageType::kRequest, .request_id = id, .cls = http::ClientClass::kGood});
      streams.push_back(std::move(req));
      auto pay = std::make_unique<http::MessageStream>(payers[i]->connect(thinner_host.id(), 81));
      pay->send(http::Message{
          .type = http::MessageType::kPayOpen, .request_id = id, .cls = http::ClientClass::kGood});
      pay->send(http::Message{
          .type = http::MessageType::kPostData, .request_id = id, .body = megabytes(100'000)});
      streams.push_back(std::move(pay));
    }
    loop.run_until(SimTime::zero() + Duration::seconds(kWarmupSeconds));
    const std::uint64_t warm_events = loop.executed_events();
    const Bytes warm_paid = thinner.stats().payment_bytes_total;
    const auto t0 = Clock::now();
    loop.run_until(SimTime::zero() + Duration::seconds(kWarmupSeconds + kSimSeconds));
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    if (thinner.stats().payment_bytes_total <= warm_paid) {
      std::fprintf(stderr, "thinner_sink: the thinner sank no payment\n");
      std::exit(1);
    }
    if (r == 0 || wall < best.wall_seconds) {
      best.wall_seconds = wall;
      best.ops = static_cast<double>(loop.executed_events() - warm_events);
      best.sim_seconds = kSimSeconds;
    }
  }
  return best;
}

// --- million_clients: the pooled client engine at 10^5 clients -----------
//
// Runs scenarios/million_clients.json (10^5 struct-of-arrays clients on
// client::ClientPool — flash-crowd good + botnet bad, defense none).
// Topology construction (10^5 hosts and access links) is material and not
// what the client engine is being measured on, so each run builds the
// Experiment untimed and times only the simulation, like loss_recovery.

BenchResult bench_million_clients(int repeat) {
  const exp::ScenarioFile file = bench::load_scenarios("million_clients.json");
  BenchResult best;
  best.name = "million_clients";
  best.ops_kind = "events_fired";
  for (int r = 0; r < repeat; ++r) {
    double wall = 0;
    std::uint64_t events = 0;
    double sim = 0;
    for (const exp::LabeledScenario& s : file.scenarios) {
      exp::Experiment e(s.config);
      const auto t0 = Clock::now();
      const exp::ExperimentResult res = e.run();
      wall += std::chrono::duration<double>(Clock::now() - t0).count();
      events += res.events_executed;
      sim += res.sim_duration.sec();
    }
    if (r == 0 || wall < best.wall_seconds) {
      best.wall_seconds = wall;
      best.ops = static_cast<double>(events);
      best.sim_seconds = sim;
    }
  }
  return best;
}

// --- smoke_scenario: the checked-in CI sweep, serial ---------------------

BenchResult bench_smoke_scenario(int repeat) {
  const exp::ScenarioFile file = bench::load_scenarios("smoke.json");
  return best_of("smoke_scenario", "events_fired", repeat, [&file](BenchResult& out) {
    std::uint64_t events = 0;
    double sim = 0;
    for (const exp::LabeledScenario& s : file.scenarios) {
      const exp::ExperimentResult r = exp::run_scenario(s.config);
      events += r.events_executed;
      sim += r.sim_duration.sec();
    }
    out.ops = static_cast<double>(events);
    out.sim_seconds = sim;
  });
}

// --- output --------------------------------------------------------------

util::json::Value to_json(const std::vector<BenchResult>& results) {
  util::json::Value::Array benches;
  for (const BenchResult& r : results) {
    util::json::Value b(util::json::Value::Object{});
    b.set("name", r.name);
    b.set("ops_kind", r.ops_kind);
    b.set("ops", r.ops);
    b.set("wall_seconds", r.wall_seconds);
    b.set("sim_seconds", r.sim_seconds);
    b.set("ops_per_sec", r.ops_per_sec());
    if (r.sim_seconds > 0) {
      b.set("wall_sec_per_sim_sec", r.wall_seconds / r.sim_seconds);
    }
    benches.push_back(std::move(b));
  }
  util::json::Value doc(util::json::Value::Object{});
  doc.set("schema", "speakup-hotpath-bench-v1");
  doc.set("benches", util::json::Value(std::move(benches)));
  return doc;
}

void print_table(const std::vector<BenchResult>& results) {
  std::printf("%-18s %14s %12s %14s %12s\n", "bench", "ops", "wall_s", "ops/sec",
              "wall/sim_s");
  for (const BenchResult& r : results) {
    std::printf("%-18s %14.0f %12.4f %14.0f %12s\n", r.name.c_str(), r.ops, r.wall_seconds,
                r.ops_per_sec(),
                r.sim_seconds > 0
                    ? util::json::number_to_string(r.wall_seconds / r.sim_seconds).c_str()
                    : "-");
  }
}

/// Compares against a baseline JSON (the checked-in BENCH_hotpath.json).
/// Returns the number of benches whose ops_per_sec regressed by more than
/// `tolerance` (fractional). Benches present on only one side are skipped
/// with a warning so adding a bench doesn't break the gate retroactively.
int check_against(const std::vector<BenchResult>& results, const std::string& baseline_path,
                  double tolerance) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "cannot open baseline %s\n", baseline_path.c_str());
    return 1;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const util::json::Value doc = util::json::parse(ss.str());
  const util::json::Value* benches = doc.find("benches");
  if (benches == nullptr || !benches->is_array()) {
    std::fprintf(stderr, "%s: no \"benches\" array\n", baseline_path.c_str());
    return 1;
  }
  int regressions = 0;
  for (const BenchResult& r : results) {
    const util::json::Value* base = nullptr;
    for (const util::json::Value& b : benches->as_array()) {
      const util::json::Value* name = b.find("name");
      if (name != nullptr && name->is_string() && name->as_string() == r.name) {
        base = &b;
        break;
      }
    }
    if (base == nullptr) {
      std::fprintf(stderr, "note: bench %s has no baseline entry; skipped\n", r.name.c_str());
      continue;
    }
    const util::json::Value* base_ops_v = base->find("ops_per_sec");
    if (base_ops_v == nullptr || !base_ops_v->is_number()) {
      std::fprintf(stderr, "%s: entry %s has no numeric \"ops_per_sec\"\n",
                   baseline_path.c_str(), r.name.c_str());
      ++regressions;
      continue;
    }
    const double base_ops = base_ops_v->as_number();
    const double floor = base_ops * (1.0 - tolerance);
    const bool ok = r.ops_per_sec() >= floor;
    std::printf("check %-18s baseline %14.0f current %14.0f (floor %14.0f) %s\n",
                r.name.c_str(), base_ops, r.ops_per_sec(), floor, ok ? "ok" : "REGRESSED");
    if (!ok) ++regressions;
  }
  return regressions;
}

int run(int argc, char** argv) {
  std::string json_out;
  std::string check_path;
  double tolerance = 0.25;
  int repeat = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--json") {
      json_out = next("--json");
    } else if (arg == "--check") {
      check_path = next("--check");
    } else if (arg == "--tolerance") {
      tolerance = std::atof(next("--tolerance").c_str());
    } else if (arg == "--repeat") {
      repeat = std::atoi(next("--repeat").c_str());
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (repeat < 1) repeat = 1;

  std::vector<BenchResult> results;
  results.push_back(bench_timer_churn(repeat));
  results.push_back(bench_cancel_heavy(repeat));
  results.push_back(bench_packet_pipeline(repeat));
  results.push_back(bench_loss_recovery(repeat));
  results.push_back(bench_thinner_sink(repeat));
  results.push_back(bench_million_clients(repeat));
  results.push_back(bench_smoke_scenario(repeat));
  print_table(results);

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out << to_json(results).dump(2) << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_out.c_str());
  }
  if (!check_path.empty()) {
    const int regressions = check_against(results, check_path, tolerance);
    if (regressions > 0) {
      std::fprintf(stderr, "%d bench(es) regressed more than %.0f%%\n", regressions,
                   tolerance * 100.0);
      return 1;
    }
    std::printf("all benches within %.0f%% of baseline\n", tolerance * 100.0);
  }
  return 0;
}

}  // namespace
}  // namespace speakup

int main(int argc, char** argv) { return speakup::run(argc, argv); }
