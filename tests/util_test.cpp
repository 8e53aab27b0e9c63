// Tests for util: strong units, RNG streams, assertions, the record slab.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <new>

#include "util/alloc_guard.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/slab.hpp"
#include "util/units.hpp"

namespace speakup {
namespace {

TEST(Duration, FactoriesAgree) {
  EXPECT_EQ(Duration::seconds(1.0).ns(), 1'000'000'000);
  EXPECT_EQ(Duration::millis(1).ns(), 1'000'000);
  EXPECT_EQ(Duration::micros(1).ns(), 1'000);
  EXPECT_EQ(Duration::nanos(1).ns(), 1);
  EXPECT_EQ(Duration::zero().ns(), 0);
}

TEST(Duration, Arithmetic) {
  const Duration a = Duration::millis(500);
  const Duration b = Duration::millis(250);
  EXPECT_EQ((a + b).ns(), Duration::millis(750).ns());
  EXPECT_EQ((a - b).ns(), Duration::millis(250).ns());
  EXPECT_EQ((a * 3).ns(), Duration::millis(1500).ns());
  EXPECT_EQ((a / 2).ns(), Duration::millis(250).ns());
  EXPECT_LT(b, a);
  EXPECT_DOUBLE_EQ(a.sec(), 0.5);
  EXPECT_DOUBLE_EQ(a.ms(), 500.0);
}

TEST(Duration, NegativeSecondsRoundCorrectly) {
  EXPECT_EQ(Duration::seconds(-1.5).ns(), -1'500'000'000);
}

TEST(Duration, InfiniteIsHuge) {
  EXPECT_GT(Duration::infinite(), Duration::seconds(1e9));
}

// A draw like exponential(1e-11) is 1e11 s, whose nanoseconds do not fit in
// int64: it saturates instead of overflowing the cast.
TEST(Duration, SecondsSaturateOutsideInt64) {
  EXPECT_EQ(Duration::seconds(9.2e9).ns(), 9'200'000'000'000'000'000);
  EXPECT_EQ(Duration::seconds(1e11).ns(), INT64_MAX);
  EXPECT_EQ(Duration::seconds(1e300).ns(), INT64_MAX);
  EXPECT_EQ(Duration::seconds(-1e11).ns(), INT64_MIN);
}

TEST(SimTime, Ordering) {
  const SimTime t0 = SimTime::zero();
  const SimTime t1 = t0 + Duration::seconds(1.0);
  EXPECT_LT(t0, t1);
  EXPECT_EQ((t1 - t0).ns(), Duration::seconds(1.0).ns());
  EXPECT_DOUBLE_EQ(t1.sec(), 1.0);
}

TEST(SimTime, AdditionSaturates) {
  const SimTime late = SimTime::from_ns(9'000'000'000'000'000'000);
  EXPECT_EQ((late + Duration::seconds(9e9)).ns(), INT64_MAX);
  EXPECT_EQ((late + Duration::nanos(INT64_MAX)).ns(), INT64_MAX);
  EXPECT_EQ((SimTime::from_ns(-5) + Duration::nanos(INT64_MIN)).ns(), INT64_MIN);
  EXPECT_EQ((late + Duration::seconds(1.0)).ns(), 9'000'000'001'000'000'000);
}

TEST(Bandwidth, Factories) {
  EXPECT_EQ(Bandwidth::mbps(2.0).bits_per_sec(), 2'000'000);
  EXPECT_EQ(Bandwidth::kbps(100).bits_per_sec(), 100'000);
  EXPECT_EQ(Bandwidth::gbps(1.5).bits_per_sec(), 1'500'000'000);
  EXPECT_DOUBLE_EQ(Bandwidth::mbps(2.0).bytes_per_sec(), 250'000.0);
}

TEST(Bandwidth, TransmissionTime) {
  // 1500 bytes at 2 Mbit/s = 6 ms.
  EXPECT_EQ(Bandwidth::mbps(2.0).transmission_time(1500).ns(), 6'000'000);
  // 40 bytes at 1 Gbit/s = 320 ns.
  EXPECT_EQ(Bandwidth::gbps(1.0).transmission_time(40).ns(), 320);
}

TEST(Bandwidth, TransmissionTimeScalesLinearly) {
  const Bandwidth bw = Bandwidth::mbps(10.0);
  const auto t1 = bw.transmission_time(1000).ns();
  const auto t2 = bw.transmission_time(2000).ns();
  EXPECT_EQ(t2, 2 * t1);
}

TEST(Bytes, Helpers) {
  EXPECT_EQ(kilobytes(2), 2000);
  EXPECT_EQ(megabytes(1), 1'000'000);
}

TEST(Require, ThrowsOnViolation) {
  EXPECT_NO_THROW(util::require(true, "fine"));
  EXPECT_THROW(util::require(false, "nope"), std::invalid_argument);
}

TEST(RngStream, Deterministic) {
  util::RngStream a(42, "stream");
  util::RngStream b(42, "stream");
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(RngStream, DistinctStreamsDiffer) {
  util::RngStream a(42, "alpha");
  util::RngStream b(42, "beta");
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngStream, DistinctSeedsDiffer) {
  util::RngStream a(1, "s");
  util::RngStream b(2, "s");
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngStream, UniformRange) {
  util::RngStream r(7, "u");
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(3.0, 5.0);
    EXPECT_GE(x, 3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngStream, UniformIntInclusive) {
  util::RngStream r(7, "i");
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all faces show up in 1000 rolls
}

TEST(RngStream, ExponentialMean) {
  util::RngStream r(7, "e");
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);  // mean 1/rate
}

TEST(RngStream, ChanceProbability) {
  util::RngStream r(7, "c");
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (r.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

// --- CompactMt19937_64: the first block computed from the seed -------------
//
// The engine must return exactly what std::mt19937_64 returns for the same
// seed, through block 0 (draws 0..311), across the spill to the heap engine
// on draw 312, and after copies and moves at every boundary.

static_assert(sizeof(util::RngStream) <= 64, "RngStream must stay compact");

std::vector<std::uint64_t> differential_seeds() {
  std::vector<std::uint64_t> seeds = {0, 1, 2, 5489, ~std::uint64_t{0}, 1ull << 63};
  for (int n = 0; n < 8; ++n) {
    const std::string name = "client." + std::to_string(n);
    seeds.push_back(util::RngStream::mix(7, util::fnv1a(name)));
    seeds.push_back(util::RngStream::mix(20061, util::fnv1a(name)));
  }
  for (std::uint64_t s = 0; seeds.size() < 80; ++s) seeds.push_back(util::RngStream::mix(s, s));
  return seeds;
}

TEST(CompactMtEngine, MatchesStdEngineOnEverySeed) {
  for (const std::uint64_t seed : differential_seeds()) {
    util::CompactMt19937_64 compact(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(compact(), reference()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(CompactMtEngine, CopiesAndMovesContinueTheSequence) {
  const std::uint64_t seed = util::RngStream::mix(7, util::fnv1a("client.3"));
  for (const int pos : {0, 1, 155, 156, 157, 310, 311, 312, 313}) {
    util::CompactMt19937_64 original(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < pos; ++i) (void)original();
    reference.discard(static_cast<unsigned long long>(pos));

    util::CompactMt19937_64 copied(original);
    util::CompactMt19937_64 assigned(1);
    assigned = original;
    util::CompactMt19937_64 moved_from(original);
    util::CompactMt19937_64 moved(std::move(moved_from));
    util::CompactMt19937_64 move_assigned(2);
    move_assigned = std::move(moved);
    for (int i = 0; i < 700; ++i) {
      const std::uint64_t want = reference();
      ASSERT_EQ(original(), want) << "original at " << pos << "+" << i;
      ASSERT_EQ(copied(), want) << "copy at " << pos << "+" << i;
      ASSERT_EQ(assigned(), want) << "copy-assigned at " << pos << "+" << i;
      ASSERT_EQ(move_assigned(), want) << "moved at " << pos << "+" << i;
    }
  }
}

// The distributions are libstdc++'s; given the same engine outputs they must
// return the same values as over a std::mt19937_64 seeded the same way.
TEST(CompactMtEngine, StreamDrawsMatchStdDistributions) {
  for (const char* name : {"client.0", "client.41", "server"}) {
    util::RngStream stream(7, name);
    std::mt19937_64 ref(util::RngStream::mix(7, util::fnv1a(name)));
    for (int i = 0; i < 400; ++i) {
      ASSERT_EQ(stream.uniform(), (std::uniform_real_distribution<double>(0.0, 1.0)(ref)));
      ASSERT_EQ(stream.uniform(-2.5, 7.0),
                (std::uniform_real_distribution<double>(-2.5, 7.0)(ref)));
      ASSERT_EQ(stream.uniform_int(1, 6),
                (std::uniform_int_distribution<std::int64_t>(1, 6)(ref)));
      ASSERT_EQ(stream.uniform_int(-3, INT64_MAX / 3),
                (std::uniform_int_distribution<std::int64_t>(-3, INT64_MAX / 3)(ref)));
      ASSERT_EQ(stream.exponential(2.0), (std::exponential_distribution<double>(2.0)(ref)));
      ASSERT_EQ(stream.chance(0.3),
                (std::uniform_real_distribution<double>(0.0, 1.0)(ref) < 0.3));
    }
  }
}

TEST(CompactMtEngine, AllocatesOnlyOnTheSpill) {
  if (!util::AllocGuard::counting()) {
    GTEST_SKIP() << "speakup_counted_new not linked";
  }
  util::CompactMt19937_64 engine(util::RngStream::mix(7, util::fnv1a("client.0")));
  const util::AllocGuard block0;
  for (int i = 0; i < 312; ++i) (void)engine();
  EXPECT_EQ(block0.delta(), 0) << "block 0 must not allocate";
  const util::AllocGuard spill;
  for (int i = 312; i < 10'000; ++i) (void)engine();
  EXPECT_EQ(spill.delta(), 1) << "the spill allocates the heap engine once";
}

TEST(Fnv1a, StableKnownValues) {
  // FNV-1a of the empty string is the offset basis.
  EXPECT_EQ(util::fnv1a(""), 1469598103934665603ull);
  EXPECT_NE(util::fnv1a("a"), util::fnv1a("b"));
}

// Regression for an ASan alloc-dealloc-mismatch: counted_new.cpp must
// override the nothrow operator-new variants alongside the throwing ones.
// libstdc++'s stable_sort temporary buffer allocates with
// `::operator new(n, std::nothrow)` and releases with plain
// `::operator delete`; with only the plain forms replaced, ASan pairs its
// own interposed nothrow-new with our free()-based delete and aborts
// (first seen in ResultWriter::merge_csv under the ASan CI job). This
// exercises exactly that pairing — and checks the allocation is counted.
TEST(AllocGuard, CountsNothrowNew) {
  if (!util::AllocGuard::counting()) {
    GTEST_SKIP() << "speakup_counted_new not linked";
  }
  const util::AllocGuard guard;
  void* p = ::operator new(64, std::nothrow);
  ASSERT_NE(p, nullptr);
  ::operator delete(p);  // the mismatched pairing ASan flagged
  void* q = ::operator new[](64, std::nothrow);
  ASSERT_NE(q, nullptr);
  ::operator delete[](q, std::nothrow);
  EXPECT_EQ(guard.delta(), 2) << "nothrow operator new must be counted";
  EXPECT_EQ(guard.bytes_delta(), 128) << "and so must the bytes it requested";
}

// Types aligned past 16 B allocate through the std::align_val_t forms of
// operator new (the event loop's 64 B slab record is one). Unless
// counted_new.cpp replaces those too, the growth of such a store is
// invisible to every zero-allocation test.
TEST(AllocGuard, CountsOverAlignedNew) {
  if (!util::AllocGuard::counting()) {
    GTEST_SKIP() << "speakup_counted_new not linked";
  }
  struct alignas(64) Line {
    char bytes[64];
  };
  std::vector<Line> lines;
  const util::AllocGuard growth;
  lines.resize(1);
  lines.resize(100);
  EXPECT_EQ(growth.delta(), 2) << "vector<alignas(64)> growth must be counted";
  EXPECT_EQ(growth.bytes_delta(), 101 * 64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(lines.data()) % 64, 0u);
  lines.clear();
  lines.shrink_to_fit();

  const util::AllocGuard forms;
  void* a = ::operator new(100, std::align_val_t{128});
  void* b = ::operator new[](192, std::align_val_t{64});
  void* c = ::operator new(32, std::align_val_t{32}, std::nothrow);
  void* d = ::operator new[](64, std::align_val_t{64}, std::nothrow);
  ASSERT_NE(c, nullptr);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 128, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 32, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % 64, 0u);
  ::operator delete(a, 100, std::align_val_t{128});
  ::operator delete[](b, 192, std::align_val_t{64});
  ::operator delete(c, std::align_val_t{32}, std::nothrow);
  ::operator delete[](d, std::align_val_t{64});
  EXPECT_EQ(forms.delta(), 4) << "every aligned form must be counted";
  EXPECT_EQ(forms.bytes_delta(), 100 + 192 + 32 + 64);
}

// --- util::Slab ------------------------------------------------------------

/// A record that counts its constructions and its destructions per value.
struct Tracked {
  explicit Tracked(int v) : value(v) { ++constructed; }
  ~Tracked() { ++destroyed[static_cast<std::size_t>(value)]; }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  int value;
  std::uint32_t next = util::kNil;
  static inline int constructed = 0;
  static inline std::vector<int> destroyed;
};

TEST(Slab, AddressesStayStableAcrossChunkGrowth) {
  util::Slab<Tracked, 4> slab;
  Tracked::destroyed.assign(20, 0);
  std::vector<const Tracked*> at;
  for (int v = 0; v < 20; ++v) {
    const std::uint32_t i = slab.emplace(v);
    ASSERT_EQ(i, static_cast<std::uint32_t>(v));  // dense, in order
    at.push_back(&slab[i]);
  }
  ASSERT_EQ(slab.chunk_count(), 5u);  // four growths past the first chunk
  for (std::uint32_t i = 0; i < 20; ++i) {
    EXPECT_EQ(&slab[i], at[i]) << "growth moved record " << i;
    EXPECT_EQ(slab[i].value, static_cast<int>(i));
  }
}

TEST(Slab, ReusesErasedRecordsLastInFirstOut) {
  util::Slab<int, 4> slab;
  for (int v = 0; v < 6; ++v) (void)slab.emplace(v);
  slab.erase(1);
  slab.erase(4);
  slab.erase(2);
  // The most recently erased record is reused first; only an empty free
  // list grows the slab.
  EXPECT_EQ(slab.emplace(10), 2u);
  EXPECT_EQ(slab.emplace(11), 4u);
  slab.erase(0);
  EXPECT_EQ(slab.emplace(12), 0u);
  EXPECT_EQ(slab.emplace(13), 1u);
  EXPECT_EQ(slab.emplace(14), 6u);
  EXPECT_EQ(slab.size(), 7u);
  EXPECT_EQ(slab.in_use(), 7u);
  EXPECT_EQ(slab[2], 10);
  EXPECT_EQ(slab[4], 11);
  EXPECT_EQ(slab[0], 12);
  EXPECT_EQ(slab[1], 13);
}

TEST(Slab, ChunkCountIsThePeakInWholeChunks) {
  util::Slab<int, 4> slab;
  std::vector<std::uint32_t> live;
  for (const int peak : {1, 3, 4, 5, 8, 9, 13}) {
    while (live.size() < static_cast<std::size_t>(peak)) live.push_back(slab.emplace(0));
    // Churn below the peak reuses records and adds no chunk.
    for (int k = 0; k < 10; ++k) {
      slab.erase(live.back());
      live.back() = slab.emplace(k);
    }
    EXPECT_EQ(slab.size(), static_cast<std::uint32_t>(peak));
    EXPECT_EQ(slab.chunk_count(), static_cast<std::size_t>((peak + 3) / 4)) << "peak " << peak;
  }
}

TEST(Slab, TeardownDestroysLiveRecordsOnceAndFreedOnesNever) {
  Tracked::constructed = 0;
  Tracked::destroyed.assign(10, 0);
  {
    util::Slab<Tracked, 4> slab;
    for (int v = 0; v < 10; ++v) (void)slab.emplace(v);
    for (const std::uint32_t i : {7u, 2u, 5u}) slab.erase(i);
    EXPECT_EQ(Tracked::destroyed, (std::vector<int>{0, 0, 1, 0, 0, 1, 0, 1, 0, 0}));
  }
  EXPECT_EQ(Tracked::constructed, 10);
  EXPECT_EQ(Tracked::destroyed, std::vector<int>(10, 1));
}

TEST(Slab, SteadyChurnAtAStablePeakAllocatesNothing) {
  util::Slab<Tracked, 8> slab;
  Tracked::destroyed.assign(64, 0);
  std::vector<std::uint32_t> live;
  live.reserve(64);
  for (int v = 0; v < 64; ++v) live.push_back(slab.emplace(v));
  ASSERT_TRUE(util::AllocGuard::counting()) << "speakup_counted_new not linked";
  const util::AllocGuard guard;
  std::uint64_t x = 88172645463325252ull;
  for (int step = 0; step < 10'000; ++step) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::size_t k = x % live.size();
    const int v = slab[live[k]].value;
    slab.erase(live[k]);
    live[k] = slab.emplace(v);
  }
  EXPECT_EQ(guard.delta(), 0) << "churn at a stable peak allocated";
  EXPECT_EQ(slab.size(), 64u);
  EXPECT_EQ(slab.in_use(), 64u);
}

TEST(IndexList, ListsSharingOneSlabStayFifo) {
  util::Slab<Tracked, 4> slab;
  Tracked::destroyed.assign(100, 0);
  util::IndexList<&Tracked::next> odd;
  util::IndexList<&Tracked::next> even;
  int want_odd = 1;
  int want_even = 0;
  for (int v = 0; v < 100; ++v) {
    (v % 2 ? odd : even).push_back(slab, slab.emplace(v));
    if (v % 3 == 2) {
      for (auto* l : {&odd, &even}) {
        const std::uint32_t i = l->pop_front(slab);
        EXPECT_EQ(slab[i].value, l == &odd ? want_odd : want_even);
        (l == &odd ? want_odd : want_even) += 2;
        slab.erase(i);
      }
    }
  }
  EXPECT_EQ(odd.count + even.count, slab.in_use());
  EXPECT_EQ(slab[odd.tail].value, 99);
  EXPECT_EQ(slab[even.tail].value, 98);
}

}  // namespace
}  // namespace speakup
