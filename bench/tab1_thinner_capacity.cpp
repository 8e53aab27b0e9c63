// Table 1 row 3 / §7.1: thinner capacity.
//
// The paper measures how fast its unoptimized thinner sinks payment bytes
// on a 3 GHz Xeon: 1451 Mbit/s with 1500-byte packets, 379 Mbit/s with
// 120-byte packets. This benchmark times exp::sink_payment (the rig the
// `tab1` report's row 3 also runs) at each wire packet size. As in the
// paper, smaller packets cost more per byte because the per-packet work
// dominates.
//
// The measured grid — client count and wire packet sizes — comes from
// scenarios/tab1_capacity.json; the benchmarks are registered at runtime
// from that file.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_common.hpp"
#include "exp/report.hpp"
#include "exp/scenario_io.hpp"
#include "net/packet.hpp"

namespace {

using namespace speakup;

/// Arg(0): wire packet size (payload = size - 40). The checked-in grid
/// matches the paper's 1500-byte and 120-byte measurements.
void BM_ThinnerSinkRate(benchmark::State& state, int clients) {
  const Bytes sunk = exp::sink_payment(state.range(0) - net::kHeaderBytes, clients, 0.05,
                                       [&state] { return state.KeepRunning(); });
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
