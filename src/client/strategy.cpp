#include "client/strategy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/assert.hpp"

namespace speakup::client {

// ---------------------------------------------------------------------------
// StrategyParams.
// ---------------------------------------------------------------------------

double StrategyParams::knob(std::string_view key, double fallback) const {
  for (const auto& [k, v] : knobs) {
    if (k == key) return v;
  }
  return fallback;
}

void StrategyParams::require_knobs(std::string_view strategy,
                                   std::initializer_list<std::string_view> known) const {
  for (const auto& [k, v] : knobs) {
    (void)v;
    if (std::find(known.begin(), known.end(), k) != known.end()) continue;
    std::ostringstream os;
    os << "strategy '" << strategy << "': unknown parameter '" << k << "'";
    if (known.size() == 0) {
      os << " (it takes none)";
    } else {
      os << " (known:";
      for (const std::string_view n : known) os << " " << n;
      os << ")";
    }
    throw std::invalid_argument(os.str());
  }
}

namespace {

[[noreturn]] void bad_knob(std::string_view strategy, const std::string& what) {
  throw std::invalid_argument("strategy '" + std::string(strategy) + "': " + what);
}

// ---------------------------------------------------------------------------
// "poisson" — the §7.1 baseline both presets used before strategies existed.
// Draws exactly one exponential per arrival, so a scenario that never names
// a strategy is bit-identical to the pre-strategy client.
// ---------------------------------------------------------------------------

class PoissonStrategy final : public Strategy {
 public:
  explicit PoissonStrategy(StrategyParams p) : Strategy(std::move(p)) {
    params_.require_knobs(name(), {});
  }

  [[nodiscard]] std::string_view name() const override { return "poisson"; }

  [[nodiscard]] Duration next_arrival(util::RngStream& rng,
                                      const StrategyView& v) const override {
    (void)v;
    return Duration::seconds(rng.exponential(params_.lambda));
  }
};

// ---------------------------------------------------------------------------
// "onoff" — shrew-style pulsing: a Poisson(lambda) process that only runs
// during the first `duty` fraction of each `period_s` window (offset by
// `offset_s`). The arrival gap is drawn as on-time and mapped onto the wall
// clock by skipping off-phases, so the pulse edges are exact.
// ---------------------------------------------------------------------------

class OnOffStrategy final : public Strategy {
 public:
  explicit OnOffStrategy(StrategyParams p)
      : Strategy(std::move(p)),
        period_(params_.knob("period_s", 10.0)),
        duty_(params_.knob("duty", 0.5)),
        offset_(params_.knob("offset_s", 0.0)) {
    params_.require_knobs(name(), {"period_s", "duty", "offset_s"});
    if (period_ <= 0) bad_knob(name(), "period_s must be > 0");
    if (duty_ <= 0 || duty_ > 1) bad_knob(name(), "duty must be in (0, 1]");
  }

  [[nodiscard]] std::string_view name() const override { return "onoff"; }

  [[nodiscard]] Duration next_arrival(util::RngStream& rng,
                                      const StrategyView& v) const override {
    double need = rng.exponential(params_.lambda);  // on-time to consume
    if (duty_ >= 1.0) return Duration::seconds(need);  // always on: plain Poisson
    const double on_len = period_ * duty_;
    double t = v.now.sec() - offset_;
    while (true) {
      const double k = std::floor(t / period_);
      const double pos = t - k * period_;
      const double avail = on_len - pos;  // <= 0 in the off-phase
      if (avail > 0 && need < avail) {
        t += need;
        break;
      }
      if (avail > 0) need -= avail;
      // Jump to the next period start by absolute assignment. Accumulating
      // `t += avail` instead can stall forever: just below a phase edge,
      // avail underflows beneath one ulp of t and t += avail is a no-op.
      double next = (k + 1.0) * period_;
      if (next <= t) next = std::nextafter(t, std::numeric_limits<double>::infinity());
      t = next;
    }
    return Duration::seconds(t + offset_ - v.now.sec());
  }

 private:
  const double period_;
  const double duty_;
  const double offset_;
};

// ---------------------------------------------------------------------------
// "defector" — §7.4 gaming: behaves like a payer until it has been admitted
// `defect_after_served` times (default 1), then refuses every later
// kPleasePay. `patience_s` > 0 additionally abandons an open payment
// channel mid-window after that long without a win.
// ---------------------------------------------------------------------------

class DefectorStrategy final : public Strategy {
 public:
  explicit DefectorStrategy(StrategyParams p)
      : Strategy(std::move(p)),
        defect_after_served_(params_.knob("defect_after_served", 1.0)),
        patience_(params_.knob("patience_s", 0.0)) {
    params_.require_knobs(name(), {"defect_after_served", "patience_s"});
    if (defect_after_served_ < 1) bad_knob(name(), "defect_after_served must be >= 1");
    if (patience_ < 0) bad_knob(name(), "patience_s must be >= 0");
  }

  [[nodiscard]] std::string_view name() const override { return "defector"; }

  [[nodiscard]] Duration next_arrival(util::RngStream& rng,
                                      const StrategyView& v) const override {
    (void)v;
    return Duration::seconds(rng.exponential(params_.lambda));
  }

  [[nodiscard]] bool pay(util::RngStream& rng, const StrategyView& v) const override {
    (void)rng;
    return static_cast<double>(v.stats->served) < defect_after_served_;
  }

  [[nodiscard]] std::optional<Duration> payment_patience(util::RngStream& rng,
                                                         const StrategyView& v) const override {
    (void)rng;
    (void)v;
    if (patience_ <= 0) return std::nullopt;
    return Duration::seconds(patience_);
  }

 private:
  const double defect_after_served_;
  const double patience_;
};

// ---------------------------------------------------------------------------
// "adaptive-window" — ramps concurrency with the observed denial rate: an
// attacker that widens its window as the defense pushes back. The window
// interpolates from the base `window` (no denials) up to `max_window`
// (every resolved request denied), scaled by `gain`.
// ---------------------------------------------------------------------------

class AdaptiveWindowStrategy final : public Strategy {
 public:
  explicit AdaptiveWindowStrategy(StrategyParams p)
      : Strategy(std::move(p)),
        max_window_(params_.knob("max_window", 3.0 * params_.window)),
        gain_(params_.knob("gain", 1.0)) {
    params_.require_knobs(name(), {"max_window", "gain"});
    if (max_window_ < params_.window) {
      bad_knob(name(), "max_window must be >= the base window");
    }
    if (gain_ < 0) bad_knob(name(), "gain must be >= 0");
  }

  [[nodiscard]] std::string_view name() const override { return "adaptive-window"; }

  [[nodiscard]] Duration next_arrival(util::RngStream& rng,
                                      const StrategyView& v) const override {
    (void)v;
    return Duration::seconds(rng.exponential(params_.lambda));
  }

  [[nodiscard]] int window(const StrategyView& v) const override {
    const std::int64_t resolved = v.stats->resolved();
    const double denial_rate =
        resolved == 0 ? 0.0
                      : static_cast<double>(v.stats->denied + v.stats->busy_rejected) /
                            static_cast<double>(resolved);
    const double ramp = std::min(1.0, gain_ * denial_rate);
    const double w = params_.window + ramp * (max_window_ - params_.window);
    return static_cast<int>(std::llround(w));
  }

 private:
  const double max_window_;
  const double gain_;
};

// ---------------------------------------------------------------------------
// "flash-crowd" — no malice, just correlation: a Poisson process whose rate
// jumps to lambda * surge_factor during [surge_start_s, surge_start_s +
// surge_duration_s). The gap is drawn by inverting the piecewise-constant
// rate, so the surge edge is exact (a pre-surge draw cannot overshoot the
// surge).
// ---------------------------------------------------------------------------

class FlashCrowdStrategy final : public Strategy {
 public:
  explicit FlashCrowdStrategy(StrategyParams p)
      : Strategy(std::move(p)),
        surge_start_(params_.knob("surge_start_s", 10.0)),
        surge_len_(params_.knob("surge_duration_s", 20.0)),
        factor_(params_.knob("surge_factor", 10.0)) {
    params_.require_knobs(name(), {"surge_start_s", "surge_duration_s", "surge_factor"});
    if (surge_start_ < 0) bad_knob(name(), "surge_start_s must be >= 0");
    if (surge_len_ <= 0) bad_knob(name(), "surge_duration_s must be > 0");
    if (factor_ <= 0) bad_knob(name(), "surge_factor must be > 0");
  }

  [[nodiscard]] std::string_view name() const override { return "flash-crowd"; }

  [[nodiscard]] Duration next_arrival(util::RngStream& rng,
                                      const StrategyView& v) const override {
    // `need` is measured in base-rate time; a surge second consumes
    // factor_ of it.
    double need = rng.exponential(params_.lambda);
    double t = v.now.sec();
    const double s0 = surge_start_;
    const double s1 = surge_start_ + surge_len_;
    if (t < s0) {
      const double seg = std::min(need, s0 - t);
      t += seg;
      need -= seg;
    }
    if (need > 0 && t < s1) {
      const double avail = (s1 - t) * factor_;
      if (need <= avail) {
        t += need / factor_;
        need = 0;
      } else {
        need -= avail;
        t = s1;
      }
    }
    t += need;
    return Duration::seconds(t - v.now.sec());
  }

 private:
  const double surge_start_;
  const double surge_len_;
  const double factor_;
};

// ---------------------------------------------------------------------------
// "recon" — coupon-collector reconnaissance (Fleck et al.): the first
// `probes` arrivals are probes sent at rate `probe_lambda` whose kPleasePay
// is refused — the attacker maps the defense's behavior before committing
// any bandwidth. After the probe budget is spent it behaves exactly like
// "poisson" (pays, base rate). With probes = 0 the probe phase never
// exists, so the strategy is bit-for-bit identical to "poisson": one
// exponential draw per arrival, no other RNG consumption. A member's
// arrival count stands in for the gaps it has drawn: the pool draws one
// gap at start and one after counting each arrival, so a draw follows
// `arrivals` gaps and pay() is asked after `arrivals + 1`.
// ---------------------------------------------------------------------------

class ReconStrategy final : public Strategy {
 public:
  explicit ReconStrategy(StrategyParams p)
      : Strategy(std::move(p)),
        probes_(params_.knob("probes", 8.0)),
        probe_lambda_(params_.knob("probe_lambda", 0.0)) {
    params_.require_knobs(name(), {"probes", "probe_lambda"});
    if (probes_ < 0) bad_knob(name(), "probes must be >= 0");
    if (probe_lambda_ < 0) bad_knob(name(), "probe_lambda must be >= 0 (0 = base lambda)");
  }

  [[nodiscard]] std::string_view name() const override { return "recon"; }

  [[nodiscard]] Duration next_arrival(util::RngStream& rng,
                                      const StrategyView& v) const override {
    // True while the gap being drawn still leads to a probe.
    const bool probing = static_cast<double>(v.stats->arrivals) < probes_;
    const double rate = probing && probe_lambda_ > 0 ? probe_lambda_ : params_.lambda;
    return Duration::seconds(rng.exponential(rate));
  }

  [[nodiscard]] bool pay(util::RngStream& rng, const StrategyView& v) const override {
    (void)rng;
    // Probe requests collect behavior without committing bandwidth. The
    // payment decision keys off how many arrivals have been drawn, which is
    // deterministic per seed.
    return static_cast<double>(v.stats->arrivals + 1) > probes_;
  }

 private:
  const double probes_;
  const double probe_lambda_;
};

// ---------------------------------------------------------------------------
// "switcher" — a strategy-switching attacker: plays the cooperative payer
// until the admission rate signals the defense has effectively detected
// (priced out) it, then defects to free-riding. Concretely: once at least
// `min_observations` requests have resolved and the observed fraction
// served drops below `served_threshold`, every later kPleasePay is refused.
// Against "none"/"elastic" it never defects (everything resolves quickly);
// against the auction it stops wasting bandwidth once outbid.
// ---------------------------------------------------------------------------

class SwitcherStrategy final : public Strategy {
 public:
  explicit SwitcherStrategy(StrategyParams p)
      : Strategy(std::move(p)),
        min_obs_(params_.knob("min_observations", 20.0)),
        threshold_(params_.knob("served_threshold", 0.2)) {
    params_.require_knobs(name(), {"min_observations", "served_threshold"});
    if (min_obs_ < 1) bad_knob(name(), "min_observations must be >= 1");
    if (threshold_ < 0 || threshold_ > 1) {
      bad_knob(name(), "served_threshold must be in [0, 1]");
    }
  }

  [[nodiscard]] std::string_view name() const override { return "switcher"; }

  [[nodiscard]] Duration next_arrival(util::RngStream& rng,
                                      const StrategyView& v) const override {
    (void)v;
    return Duration::seconds(rng.exponential(params_.lambda));
  }

  [[nodiscard]] bool pay(util::RngStream& rng, const StrategyView& v) const override {
    (void)rng;
    // Sticky: detection signals don't un-ring. Defecting is the only way
    // this strategy refuses, and the client counts every refusal, so a
    // member has defected exactly when it has declined a payment.
    if (v.stats->payments_declined > 0) return false;
    const std::int64_t resolved = v.stats->resolved();
    return static_cast<double>(resolved) < min_obs_ ||
           v.stats->fraction_served() >= threshold_;
  }

 private:
  const double min_obs_;
  const double threshold_;
};

}  // namespace

// ---------------------------------------------------------------------------
// StrategyFactory.
// ---------------------------------------------------------------------------

StrategyFactory& StrategyFactory::instance() {
  static StrategyFactory factory;
  return factory;
}

// Like the defenses, the built-ins register here instead of via static
// registrars: archive members nothing references get dropped by the linker.
StrategyFactory::StrategyFactory() {
  builders_.emplace_back("poisson", [](const StrategyParams& p) -> std::unique_ptr<Strategy> {
    return std::make_unique<PoissonStrategy>(p);
  });
  builders_.emplace_back("onoff", [](const StrategyParams& p) -> std::unique_ptr<Strategy> {
    return std::make_unique<OnOffStrategy>(p);
  });
  builders_.emplace_back("defector", [](const StrategyParams& p) -> std::unique_ptr<Strategy> {
    return std::make_unique<DefectorStrategy>(p);
  });
  builders_.emplace_back(
      "adaptive-window", [](const StrategyParams& p) -> std::unique_ptr<Strategy> {
        return std::make_unique<AdaptiveWindowStrategy>(p);
      });
  builders_.emplace_back(
      "flash-crowd", [](const StrategyParams& p) -> std::unique_ptr<Strategy> {
        return std::make_unique<FlashCrowdStrategy>(p);
      });
  builders_.emplace_back("recon", [](const StrategyParams& p) -> std::unique_ptr<Strategy> {
    return std::make_unique<ReconStrategy>(p);
  });
  builders_.emplace_back(
      "switcher", [](const StrategyParams& p) -> std::unique_ptr<Strategy> {
        return std::make_unique<SwitcherStrategy>(p);
      });
}

void StrategyFactory::register_strategy(const std::string& name, Builder builder) {
  util::require(!name.empty(), "strategy name must be non-empty");
  util::require(builder != nullptr, "strategy builder must be callable");
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [existing, unused] : builders_) {
    (void)unused;
    util::require(existing != name, "strategy '" + name + "' is already registered");
  }
  builders_.emplace_back(name, std::move(builder));
}

void StrategyFactory::unregister_strategy(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(builders_, [&](const auto& entry) { return entry.first == name; });
}

bool StrategyFactory::contains(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::any_of(builders_.begin(), builders_.end(),
                     [&](const auto& entry) { return entry.first == name; });
}

std::vector<std::string> StrategyFactory::names() const {
  std::vector<std::string> out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out.reserve(builders_.size());
    for (const auto& [name, unused] : builders_) {
      (void)unused;
      out.push_back(name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<Strategy> StrategyFactory::create(std::string_view name,
                                                  const StrategyParams& params) const {
  Builder builder;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find_if(builders_.begin(), builders_.end(),
                                 [&](const auto& entry) { return entry.first == name; });
    if (it == builders_.end()) {
      std::ostringstream os;
      os << "unknown strategy '" << name << "' (registered:";
      for (const auto& [n, unused] : builders_) {
        (void)unused;
        os << " " << n;
      }
      os << ")";
      throw std::invalid_argument(os.str());
    }
    builder = it->second;
  }
  return builder(params);
}

}  // namespace speakup::client
