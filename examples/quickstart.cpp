// Quickstart: defend a server with speak-up and watch the allocation change.
//
// 25 good clients (Poisson 2 req/s, window 1) and 25 bad clients (Poisson
// 40 req/s, window 20) share a LAN; every client has a 2 Mbit/s uplink; the
// server handles 100 requests/s. We run the same attack twice — undefended,
// then behind the speak-up thinner — and print who got the server. Both
// runs execute in parallel on the exp::Runner pool.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/theory.hpp"
#include "exp/runner.hpp"

int main() {
  using namespace speakup;

  const int kGood = 25;
  const int kBad = 25;
  const double kCapacity = 100.0;  // requests/s

  std::printf("speak-up quickstart: %d good vs %d bad clients, c = %.0f req/s\n\n",
              kGood, kBad, kCapacity);

  const char* const kDefenses[] = {"none", "auction"};
  exp::Runner runner;
  for (const char* defense : kDefenses) {
    exp::ScenarioConfig cfg = exp::lan_scenario(kGood, kBad, kCapacity, defense, /*seed=*/7);
    cfg.duration = Duration::seconds(30.0);
    runner.add(cfg, defense);
  }
  runner.run_all();

  for (const char* defense : kDefenses) {
    const exp::ExperimentResult& r = runner.result(defense);
    std::printf("defense=%-8s served(good)=%-5lld served(bad)=%-5lld "
                "alloc(good)=%.2f frac-good-served=%.2f\n",
                defense, static_cast<long long>(r.served_good),
                static_cast<long long>(r.served_bad), r.allocation_good,
                r.fraction_good_served);
  }

  // Both populations have equal aggregate bandwidth, so the ideal
  // bandwidth-proportional allocation for the good clients is 1/2.
  std::printf("\nideal allocation under speak-up (G=B): %.2f\n",
              core::theory::ideal_good_allocation(1.0, 1.0));
  return 0;
}
