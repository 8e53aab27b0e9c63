// Declarative experiment descriptions. A ScenarioConfig names everything the
// paper's testbed instantiated physically: the defense, the server
// capacity, client populations (counts, workloads, access links, RTTs),
// an optional shared bottleneck, and the optional §7.7 bystander downloader.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "client/workload_params.hpp"
#include "util/units.hpp"

namespace speakup::exp {

/// A homogeneous population of clients.
struct ClientGroupSpec {
  std::string label;
  int count = 0;
  client::WorkloadParams workload;
  Bandwidth access_bw = Bandwidth::mbps(2.0);        // §7.1: 2 Mbit/s access links
  Duration access_delay = Duration::micros(500);     // one-way
  Bytes access_queue = 48'000;
  bool behind_bottleneck = false;                    // §7.6 topology flag
  /// §9 bandwidth envy: route this group's requests through the payment
  /// proxy (which pays the thinner on their behalf). Requires
  /// ScenarioConfig::proxy.
  bool via_proxy = false;
};

/// §9: a high-bandwidth payment proxy fronting low-bandwidth customers.
struct ProxySpec {
  Bandwidth uplink = Bandwidth::mbps(20.0);
  Duration delay = Duration::micros(500);
  Bytes queue = 96'000;
};

/// Shared bottleneck link l (§7.6) or m (§7.7) between its own switch and
/// the LAN core.
struct BottleneckSpec {
  Bandwidth rate = Bandwidth::mbps(40.0);
  Duration delay = Duration::micros(500);  // one-way
  Bytes queue = 100'000;
};

/// §7.7: host H downloading from web server S while sharing the bottleneck.
struct CollateralSpec {
  Bytes file_size = kilobytes(1);
  int downloads = 100;
  Bandwidth access_bw = Bandwidth::mbps(2.0);
  Duration access_delay = Duration::micros(500);
  bool behind_bottleneck = true;
  Duration start_delay = Duration::seconds(2.0);  // let payment traffic ramp first
};

struct ScenarioConfig {
  /// The core::FrontEndFactory registry key of the defense this scenario
  /// runs ("none", "retry", "auction", "quantum", "elastic", "puzzle", or
  /// any name registered at runtime).
  std::string defense = "auction";
  double capacity_rps = 100.0;
  Duration duration = Duration::seconds(60.0);
  std::uint64_t seed = 1;
  std::vector<ClientGroupSpec> groups;
  std::optional<BottleneckSpec> bottleneck;
  std::optional<CollateralSpec> collateral;
  std::optional<ProxySpec> proxy;

  // Thinner knobs.
  Duration payment_window = Duration::seconds(10.0);
  Duration quantum = Duration::zero();  // 0 -> 1/c (the "quantum" defense only)
  Duration suspension_limit = Duration::seconds(30.0);
  Bytes response_body = 1000;
  // "elastic" defense knobs (core/elastic_front_end.hpp).
  double elastic_max_scale = 4.0;
  Duration elastic_interval = Duration::seconds(5.0);
  double elastic_threshold = 0.9;
  // "puzzle" defense knob (core/puzzle_front_end.hpp).
  Duration puzzle_cost = Duration::seconds(2.0);

  // The thinner's access link: condition C1 requires it uncongested.
  Bandwidth thinner_bw = Bandwidth::gbps(10.0);
  Duration thinner_delay = Duration::micros(500);
  Bytes thinner_queue = 4'000'000;

  /// The distinct workload strategies the groups run, joined with '+' in
  /// first-appearance order ("poisson+defector"). This is the strategy
  /// column of CSV rows, `run --list`, and tournament cells — it makes a
  /// result row self-describing without consulting the scenario file.
  [[nodiscard]] std::string strategy_names() const {
    std::vector<std::string_view> seen;
    std::string out;
    for (const ClientGroupSpec& g : groups) {
      const std::string& s = g.workload.strategy;
      if (std::find(seen.begin(), seen.end(), std::string_view(s)) != seen.end()) {
        continue;
      }
      seen.push_back(s);
      if (!out.empty()) out += '+';
      out += s;
    }
    return out;
  }
};

/// Paper-default LAN scenario (§7.2): `good` + `bad` clients, each with
/// 2 Mbit/s to the thinner over a LAN, server capacity `capacity_rps`,
/// defended by the registered defense `defense`.
[[nodiscard]] inline ScenarioConfig lan_scenario(int good, int bad, double capacity_rps,
                                                 std::string defense, std::uint64_t seed = 1) {
  ScenarioConfig cfg;
  cfg.defense = std::move(defense);
  cfg.capacity_rps = capacity_rps;
  cfg.seed = seed;
  if (good > 0) {
    ClientGroupSpec g;
    g.label = "good";
    g.count = good;
    g.workload = client::good_client_params();
    cfg.groups.push_back(g);
  }
  if (bad > 0) {
    ClientGroupSpec b;
    b.label = "bad";
    b.count = bad;
    b.workload = client::bad_client_params();
    cfg.groups.push_back(b);
  }
  return cfg;
}

}  // namespace speakup::exp
