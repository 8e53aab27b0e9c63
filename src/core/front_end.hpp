// The polymorphic defense interface.
//
// The paper's argument is a *comparison between defenses* — no defense vs.
// random-drops/retries (§3.2) vs. the virtual auction (§3.3) vs. the
// quantum auction (§5). Every defense is a "front end": it sits on the
// thinner host, accepts the request (and possibly payment) channels, and
// decides which request the protected server works on next. FrontEnd is the
// common surface the experiment harness, the Runner, and the benches
// program against; concrete defenses register themselves with
// FrontEndFactory (front_end_factory.hpp) so new ones plug in without
// touching the harness.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/thinner_stats.hpp"
#include "util/units.hpp"

namespace speakup::core {

/// Construction-time knobs, a superset over all built-in defenses; each
/// defense takes the whole struct, reads the fields it understands and
/// ignores the rest. Mirrors the thinner section of exp::ScenarioConfig.
struct FrontEndConfig {
  double capacity_rps = 100.0;  // c, in difficulty-1 requests/s
  Bytes response_body = 1000;   // served-response size
  // The auctions (§7.3): a payment channel whose request never arrives is
  // evicted after this long and its bytes are wasted.
  Duration payment_window = Duration::seconds(10);
  Duration quantum = Duration::zero();  // 0 -> 1/c (quantum auction only)
  Duration suspension_limit = Duration::seconds(30);  // §5 step 4
  // "elastic" (Bohatei-style scale-up): capacity may grow to
  // elastic_max_scale x the base rate, doubling after each monitoring
  // interval whose busy fraction reaches elastic_threshold. A max scale of
  // 1.0 arms no monitor at all (event-identical to "none").
  double elastic_max_scale = 4.0;
  Duration elastic_interval = Duration::seconds(5);
  double elastic_threshold = 0.9;
  // "puzzle" (proof-of-work currency): seconds of client compute per unit
  // of request difficulty before a held request becomes admissible.
  Duration puzzle_cost = Duration::seconds(2);
  std::uint32_t request_port = 80;
  std::uint32_t payment_port = 81;
};

class FrontEnd {
 public:
  FrontEnd() = default;
  virtual ~FrontEnd() = default;

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Registry name of this defense ("auction", "retry", ...).
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// The statistics every defense variant exposes.
  [[nodiscard]] virtual const ThinnerStats& stats() const = 0;

  /// Requests currently tracked (contending, paying, or being served).
  [[nodiscard]] virtual std::size_t contending() const = 0;

  /// Served request count, all classes.
  [[nodiscard]] std::int64_t served() const { return stats().served_total(); }

  // Server-attention accounting, by client class (§5 measures *time*, not
  // counts, because heterogeneous requests make the two differ).
  [[nodiscard]] virtual Duration server_busy_good() const = 0;
  [[nodiscard]] virtual Duration server_busy_bad() const = 0;
  /// Total busy time, all classes (>= good + bad when neutral traffic ran).
  [[nodiscard]] virtual Duration server_busy_total() const = 0;

  // Lifecycle hooks: the experiment harness calls these around the
  // simulation. Defenses that need to warm caches, arm timers, or flush
  // final accounting override them; the built-ins need neither.
  virtual void on_run_start() {}
  virtual void on_run_end() {}
};

}  // namespace speakup::core
