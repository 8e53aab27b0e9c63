// Strong unit types used throughout the simulator.
//
// Time is held as integer nanoseconds (SimTime / Duration) so that event
// ordering is exact and runs are bit-reproducible. Bandwidth is held as an
// integer bits-per-second. Helper factories (seconds(), mbps(), kilobytes(),
// ...) keep call sites free of unit mistakes, per the Core Guidelines advice
// to make interfaces precisely typed.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <ostream>

#include "util/assert.hpp"

namespace speakup {

/// A span of simulated time. Integer nanoseconds.
class Duration {
 public:
  constexpr Duration() = default;
  static constexpr Duration nanos(std::int64_t ns) { return Duration{ns}; }
  static constexpr Duration micros(std::int64_t us) { return Duration{us * 1000}; }
  static constexpr Duration millis(std::int64_t ms) { return Duration{ms * 1'000'000}; }
  /// Rounds to the nearest nanosecond. Values whose nanoseconds fall
  /// outside int64 (about ±292 years) saturate at the int64 limits instead
  /// of overflowing the cast.
  static constexpr Duration seconds(double s) {
    const double ns = s * 1e9 + (s >= 0 ? 0.5 : -0.5);
    if (ns >= 0x1p63) return Duration{INT64_MAX};
    if (ns < -0x1p63) return Duration{INT64_MIN};
    return Duration{static_cast<std::int64_t>(ns)};
  }
  static constexpr Duration zero() { return Duration{0}; }
  /// Effectively "never" — used for disabled timers and sentinels.
  static constexpr Duration infinite() { return Duration{INT64_MAX / 4}; }

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double sec() const { return static_cast<double>(ns_) / 1e9; }
  [[nodiscard]] constexpr double ms() const { return static_cast<double>(ns_) / 1e6; }

  friend constexpr auto operator<=>(Duration, Duration) = default;
  friend constexpr Duration operator+(Duration a, Duration b) { return Duration{a.ns_ + b.ns_}; }
  friend constexpr Duration operator-(Duration a, Duration b) { return Duration{a.ns_ - b.ns_}; }
  friend constexpr Duration operator*(Duration a, std::int64_t k) { return Duration{a.ns_ * k}; }
  friend constexpr Duration operator*(std::int64_t k, Duration a) { return a * k; }
  friend constexpr Duration operator/(Duration a, std::int64_t k) { return Duration{a.ns_ / k}; }
  constexpr Duration& operator+=(Duration o) { ns_ += o.ns_; return *this; }
  constexpr Duration& operator-=(Duration o) { ns_ -= o.ns_; return *this; }

 private:
  constexpr explicit Duration(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

/// An absolute point on the simulated clock. Integer nanoseconds since start.
class SimTime {
 public:
  constexpr SimTime() = default;
  static constexpr SimTime zero() { return SimTime{}; }
  static constexpr SimTime from_ns(std::int64_t ns) { SimTime t; t.ns_ = ns; return t; }

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double sec() const { return static_cast<double>(ns_) / 1e9; }

  friend constexpr auto operator<=>(SimTime, SimTime) = default;
  /// Saturates at the int64 limits: a deadline past the end of the clock
  /// reads as the clock's last instant, which no run reaches.
  friend constexpr SimTime operator+(SimTime t, Duration d) {
    std::int64_t ns = 0;
    if (__builtin_add_overflow(t.ns_, d.ns(), &ns)) ns = d.ns() > 0 ? INT64_MAX : INT64_MIN;
    return SimTime::from_ns(ns);
  }
  friend constexpr Duration operator-(SimTime a, SimTime b) {
    return Duration::nanos(a.ns_ - b.ns_);
  }

 private:
  std::int64_t ns_ = 0;
};

/// Link or access-line rate. Integer bits per second.
class Bandwidth {
 public:
  constexpr Bandwidth() = default;
  static constexpr Bandwidth bps(std::int64_t v) { return Bandwidth{v}; }
  static constexpr Bandwidth kbps(double v) {
    return Bandwidth{static_cast<std::int64_t>(v * 1e3 + 0.5)};
  }
  static constexpr Bandwidth mbps(double v) {
    return Bandwidth{static_cast<std::int64_t>(v * 1e6 + 0.5)};
  }
  static constexpr Bandwidth gbps(double v) {
    return Bandwidth{static_cast<std::int64_t>(v * 1e9 + 0.5)};
  }

  [[nodiscard]] constexpr std::int64_t bits_per_sec() const { return bps_; }
  [[nodiscard]] constexpr double mbits_per_sec() const { return static_cast<double>(bps_) / 1e6; }
  [[nodiscard]] constexpr double bytes_per_sec() const { return static_cast<double>(bps_) / 8.0; }

  /// Time to serialize `bytes` onto a line of this rate.
  [[nodiscard]] Duration transmission_time(std::int64_t bytes) const {
    SPEAKUP_ASSERT(bps_ > 0);
    const double ns = static_cast<double>(bytes) * 8.0 * 1e9 / static_cast<double>(bps_);
    return Duration::nanos(static_cast<std::int64_t>(std::llround(ns)));
  }

  friend constexpr auto operator<=>(Bandwidth, Bandwidth) = default;
  friend constexpr Bandwidth operator+(Bandwidth a, Bandwidth b) { return Bandwidth{a.bps_ + b.bps_}; }

 private:
  constexpr explicit Bandwidth(std::int64_t bps) : bps_(bps) {}
  std::int64_t bps_ = 0;
};

using Bytes = std::int64_t;

constexpr Bytes kilobytes(std::int64_t kb) { return kb * 1000; }
constexpr Bytes megabytes(std::int64_t mb) { return mb * 1'000'000; }

inline std::ostream& operator<<(std::ostream& os, Duration d) { return os << d.sec() << "s"; }
inline std::ostream& operator<<(std::ostream& os, SimTime t) { return os << t.sec() << "s"; }
inline std::ostream& operator<<(std::ostream& os, Bandwidth b) {
  return os << b.mbits_per_sec() << "Mbit/s";
}

}  // namespace speakup
