// Table 1 row 3 / §7.1: thinner capacity.
//
// The paper measures how fast its unoptimized thinner sinks payment bytes
// on a 3 GHz Xeon: 1451 Mbit/s with 1500-byte packets, 379 Mbit/s with
// 120-byte packets. The analog here is the rate at which our thinner —
// running atop the whole simulated stack (links, TCP, framing, auction
// accounting) — sinks *simulated* payment bytes per second of host wall
// time. As in the paper, smaller packets cost more per byte because the
// per-packet work dominates.
//
// The measured grid — client count and wire packet sizes — comes from
// scenarios/tab1_capacity.json; the benchmarks are registered at runtime
// from that file.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/auction_thinner.hpp"
#include "exp/scenario_io.hpp"
#include "net/network.hpp"
#include "sim/event_loop.hpp"
#include "transport/host.hpp"
#include "util/rng.hpp"

namespace {

using namespace speakup;

struct CapacityRig {
  explicit CapacityRig(Bytes mss, int clients) : net(loop) {
    auto& sw = net.add_switch("sw");
    thinner_host = &net.add_node<transport::Host>("thinner");
    transport::TcpConfig cfg;
    cfg.mss = mss;
    thinner_host->set_tcp_config(cfg);
    net.connect(*thinner_host, sw,
                net::LinkSpec{Bandwidth::gbps(100.0), Duration::micros(100), 64'000'000});
    core::FrontEndConfig tc;
    tc.capacity_rps = 0.001;  // the server never finishes: everyone pays
    thinner = std::make_unique<core::AuctionThinner>(*thinner_host, tc,
                                                     util::RngStream(1, "srv"));
    // A first request occupies the server; the rest contend and pay.
    for (int i = 0; i < clients; ++i) {
      auto& h = net.add_node<transport::Host>("payer" + std::to_string(i));
      h.set_tcp_config(cfg);
      net.connect(h, sw,
                  net::LinkSpec{Bandwidth::mbps(200.0), Duration::micros(200), 1'000'000});
      hosts.push_back(&h);
    }
    net.build_routes();
    for (std::size_t i = 0; i < hosts.size(); ++i) start_client(*hosts[i], i);
    // Warm up: establish connections, fill pipes.
    loop.run_until(SimTime::zero() + Duration::seconds(1.0));
  }

  void start_client(transport::Host& h, std::size_t idx) {
    // Request channel.
    auto& req = h.connect(thinner_host->id(), 80);
    auto req_stream = std::make_unique<http::MessageStream>(req);
    req_stream->send(http::Message{.type = http::MessageType::kRequest,
                                   .request_id = idx + 1,
                                   .cls = http::ClientClass::kGood});
    streams.push_back(std::move(req_stream));
    // Payment channel streaming an effectively-endless POST.
    auto& pay = h.connect(thinner_host->id(), 81);
    auto pay_stream = std::make_unique<http::MessageStream>(pay);
    pay_stream->send(http::Message{.type = http::MessageType::kPayOpen,
                                   .request_id = idx + 1,
                                   .cls = http::ClientClass::kGood});
    pay_stream->send(http::Message{.type = http::MessageType::kPostData,
                                   .request_id = idx + 1,
                                   .body = megabytes(100'000)});
    streams.push_back(std::move(pay_stream));
  }

  sim::EventLoop loop;
  net::Network net;
  transport::Host* thinner_host = nullptr;
  std::unique_ptr<core::AuctionThinner> thinner;
  std::vector<transport::Host*> hosts;
  std::vector<std::unique_ptr<http::MessageStream>> streams;
};

/// Arg(0): wire packet size (payload = size - 40). The checked-in grid
/// matches the paper's 1500-byte and 120-byte measurements.
void BM_ThinnerSinkRate(benchmark::State& state, int clients) {
  const Bytes mss = state.range(0) - net::kHeaderBytes;
  CapacityRig rig(mss, clients);
  Bytes sunk_before = rig.thinner->stats().payment_bytes_total;
  double sim_seconds = 1.0;
  for (auto _ : state) {
    sim_seconds += 0.05;
    rig.loop.run_until(SimTime::zero() + Duration::seconds(sim_seconds));
  }
  const Bytes sunk = rig.thinner->stats().payment_bytes_total - sunk_before;
  state.SetBytesProcessed(sunk);
  state.counters["sim_Mbit/s_of_wallclock"] = benchmark::Counter(
      static_cast<double>(sunk) * 8.0 / 1e6, benchmark::Counter::kIsRate);
  state.counters["payment_GB_sunk"] = static_cast<double>(sunk) / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  exp::CapacityBenchSpec spec;
  try {
    spec = exp::load_capacity_bench_file(bench::scenario_path("tab1_capacity.json"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  auto* b = benchmark::RegisterBenchmark(
      "BM_ThinnerSinkRate",
      [clients = spec.clients](benchmark::State& state) {
        BM_ThinnerSinkRate(state, clients);
      });
  for (const int bytes : spec.packet_bytes) b->Arg(bytes);
  b->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
