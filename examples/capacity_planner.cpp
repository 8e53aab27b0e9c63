// Example: capacity planning for a speak-up deployment (§2.1, §3.1).
//
// Usage: capacity_planner [good_demand_rps] [good_bandwidth_mbps]
//                         [attack_bandwidth_mbps]
//
// Prints the §3.1 provisioning rule for the given population, the §2.1
// botnet-size worked examples, and then validates one configuration by
// simulation.
#include <cstdio>
#include <cstdlib>

#include "core/theory.hpp"
#include "exp/runner.hpp"

int main(int argc, char** argv) {
  using namespace speakup;

  const double g = argc > 1 ? std::atof(argv[1]) : 50.0;     // good demand, req/s
  const double G = argc > 2 ? std::atof(argv[2]) : 50.0;     // good bandwidth, Mbit/s
  const double B = argc > 3 ? std::atof(argv[3]) : 100.0;    // attack bandwidth, Mbit/s
  util::require(g > 0 && G > 0 && B >= 0, "usage: capacity_planner g G B (positive)");

  std::printf("speak-up capacity planner\n");
  std::printf("  good demand g = %.0f req/s, good bandwidth G = %.0f Mbit/s, "
              "attack B = %.0f Mbit/s\n\n", g, G, B);

  const double cid = core::theory::ideal_provisioning(g, G, B);
  std::printf("§3.1 ideal provisioning:  c_id = g(1 + B/G) = %.0f req/s\n", cid);
  std::printf("   (the paper measured ~15%% above this in practice: %.0f req/s)\n\n",
              cid * 1.15);

  std::printf("what a capacity c buys you (good service rate = min(g, c*G/(G+B))):\n");
  for (const double factor : {0.5, 1.0, 1.5, 2.0}) {
    const double c = cid * factor;
    std::printf("  c = %6.0f req/s (%3.0f%% of c_id): good clients served at "
                "%5.1f req/s of their %.0f\n",
                c, factor * 100, core::theory::ideal_good_service_rate(g, G, B, c), g);
  }

  // §2.1 worked example, scaled to the configured attack.
  std::printf("\n§2.1 lens: a bot has ~100 Kbit/s; your attack equals ~%.0f bots;\n"
              "matching it needs ~%.0f good clients of the same class.\n",
              B * 1e6 / 100e3, G * 1e6 / 100e3);

  // Validate by simulation at a laptop-friendly scale: preserve the B/G
  // ratio with 2 Mbit/s clients.
  const int good_clients = 25;
  const int bad_clients = static_cast<int>(good_clients * (B / G) + 0.5);
  const double sim_g = good_clients * 2.0;
  const double sim_cid =
      core::theory::ideal_provisioning(sim_g, good_clients * 2.0, bad_clients * 2.0);
  std::printf("\nvalidating by simulation (%d good vs %d bad clients, c = c_id = %.0f):\n",
              good_clients, bad_clients, sim_cid);
  exp::ScenarioConfig cfg = exp::lan_scenario(good_clients, bad_clients, sim_cid, "auction", 9);
  cfg.duration = Duration::seconds(60.0);
  exp::Runner runner;
  runner.add(cfg, "validation");
  runner.run_all();
  std::printf("  fraction of good requests served at c_id: %.2f (ideal 1.0; the gap\n"
              "  is the §7.4 adversarial advantage — add ~15-40%% headroom)\n",
              runner.result("validation").fraction_good_served);
  return 0;
}
