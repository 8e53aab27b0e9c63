// Reproducible random-number streams.
//
// Every stochastic component in an experiment (each client's Poisson process,
// each server's service-time draw, ...) owns its own RngStream derived from
// (master seed, stream id). Components therefore consume randomness
// independently: adding a client or reordering events never perturbs another
// component's draws, which keeps experiments comparable across configurations.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string_view>

#include "util/assert.hpp"

namespace speakup::util {

/// FNV-1a, used to hash stream names into seed material.
constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// A uniform random bit generator that returns exactly what
/// `std::mt19937_64(seed)` returns, output for output, in 40 bytes instead
/// of the standard engine's 2.5 KB of state.
///
/// [rand.eng.mers] fixes the engine: seed words I[0] = seed,
/// I[j] = f·(I[j-1] ^ I[j-1] >> 62) + j, and the first block of n = 312
/// outputs is the tempering of the twisted words
///   N[k] = I[k+156] ^ T(I[k], I[k+1])          for k < 156,
///   N[k] = N[k-156] ^ T(I[k], I[k+1])          for 156 <= k < 311,
///   N[311] = N[155] ^ T(I[311], N[0]),
/// where T(a, b) twists the top 33 bits of a with the low 31 bits of b. So
/// block 0 needs only two cursors over I: `lo_` walks I[0..156] and `hi_`
/// walks I[156..311], each advanced by one multiply per output; from k = 156
/// on, N[k-156] is recomputed from `lo_` instead of stored. The 313th draw
/// puts a standard engine on the heap, seeded the same way and advanced past
/// block 0, and every later draw comes from it: one allocation per stream, at
/// most.
class CompactMt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit CompactMt19937_64(result_type seed) : seed_(seed), lo_(seed), hi_(seed) {
    for (std::uint64_t j = 1; j <= kM; ++j) hi_ = seed_word(hi_, j);
  }
  CompactMt19937_64(const CompactMt19937_64& o)
      : seed_(o.seed_), lo_(o.lo_), hi_(o.hi_), drawn_(o.drawn_),
        tail_(o.tail_ ? std::make_unique<std::mt19937_64>(*o.tail_) : nullptr) {}
  CompactMt19937_64& operator=(const CompactMt19937_64& o) {
    if (this != &o) *this = CompactMt19937_64(o);
    return *this;
  }
  CompactMt19937_64(CompactMt19937_64&&) noexcept = default;
  CompactMt19937_64& operator=(CompactMt19937_64&&) noexcept = default;

  result_type operator()() {
    if (drawn_ >= kN) return spilled();
    const std::uint64_t k = drawn_++;
    if (k < kM) {
      // N[k] = I[k+156] ^ T(I[k], I[k+1]).
      const std::uint64_t next_lo = seed_word(lo_, k + 1);
      const std::uint64_t y = hi_ ^ twist(lo_, next_lo);
      if (k + 1 < kM) {
        lo_ = next_lo;
        hi_ = seed_word(hi_, k + kM + 1);
      } else {
        // Both cursors restart: lo_ at I[0], hi_ at I[156] (= next_lo).
        lo_ = seed_;
        hi_ = next_lo;
      }
      return temper(y);
    }
    // N[k] = I[k] ^ T(I[k-156], I[k-155]) ^ T(I[k], I[k+1]), with N[0] in
    // place of I[312] for the last word.
    const std::uint64_t next_lo = seed_word(lo_, k - kM + 1);
    const std::uint64_t next_hi = k + 1 < kN ? seed_word(hi_, k + 1) : first_word();
    const std::uint64_t y = hi_ ^ twist(lo_, next_lo) ^ twist(hi_, next_hi);
    lo_ = next_lo;
    hi_ = next_hi;
    return temper(y);
  }

 private:
  static constexpr std::uint64_t kN = 312;
  static constexpr std::uint64_t kM = 156;

  static constexpr std::uint64_t seed_word(std::uint64_t prev, std::uint64_t j) {
    return 6364136223846793005ull * (prev ^ (prev >> 62)) + j;
  }

  static constexpr std::uint64_t twist(std::uint64_t a, std::uint64_t b) {
    constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
    const std::uint64_t y = (a & kUpper) | (b & ~kUpper);
    return (y >> 1) ^ ((y & 1) ? 0xb5026f5aa96619e9ull : 0);
  }

  static constexpr std::uint64_t temper(std::uint64_t y) {
    y ^= (y >> 29) & 0x5555555555555555ull;
    y ^= (y << 17) & 0x71d67fffeda60000ull;
    y ^= (y << 37) & 0xfff7eee000000000ull;
    return y ^ (y >> 43);
  }

  /// N[0] = I[156] ^ T(I[0], I[1]); called on the last block-0 draw, when
  /// lo_ holds I[155].
  [[nodiscard]] std::uint64_t first_word() const {
    return seed_word(lo_, kM) ^ twist(seed_, seed_word(seed_, 1));
  }

  result_type spilled() {
    if (!tail_) {
      tail_ = std::make_unique<std::mt19937_64>(seed_);
      tail_->discard(kN);
    }
    return (*tail_)();
  }

  std::uint64_t seed_;
  std::uint64_t lo_;
  std::uint64_t hi_;
  std::uint64_t drawn_ = 0;  // block-0 outputs returned; stops at kN
  std::unique_ptr<std::mt19937_64> tail_;
};

/// One independent stream of pseudo-random numbers.
class RngStream {
 public:
  RngStream(std::uint64_t master_seed, std::string_view stream_name)
      : engine_(mix(master_seed, fnv1a(stream_name))) {}
  RngStream(std::uint64_t master_seed, std::uint64_t stream_id)
      : engine_(mix(master_seed, stream_id)) {}

  /// Uniform double in [0, 1).
  double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    SPEAKUP_ASSERT(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    SPEAKUP_ASSERT(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Exponential with the given rate (events per unit time). Mean = 1/rate.
  double exponential(double rate) {
    SPEAKUP_ASSERT(rate > 0);
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  /// SplitMix64 finalizer: spreads correlated (seed, id) pairs across the
  /// whole 64-bit space before seeding the Mersenne Twister.
  static std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  CompactMt19937_64 engine_;
};

}  // namespace speakup::util
