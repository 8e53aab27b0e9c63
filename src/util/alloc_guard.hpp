// Allocation accounting for zero-allocation guarantees.
//
// The hot-path tests (event loop churn, the Link packet pipeline, TCP loss
// recovery, the pooled client engine) all assert that a measured region
// performs ZERO heap allocations. Each of them used to carry its own copy
// of a counting global operator new; this header is the shared version.
//
// Two pieces:
//   - util::AllocGuard — an RAII scope that snapshots the global allocation
//     counters; delta() is the number of operator-new calls since
//     construction and bytes_delta() the bytes they requested. Only deltas
//     are meaningful (gtest, warm-up phases and the harness allocate
//     freely outside measured regions).
//   - src/util/counted_new.cpp — the replacement global operator new /
//     delete that actually bumps the counter. It is a SEPARATE translation
//     unit built as the `speakup_counted_new` static library and linked
//     into the test binaries only, so the speakup library itself never
//     changes the allocation behavior of programs that link it.
//
// AllocGuard::counting() reports whether the counting allocator is linked
// into this binary; guards in binaries without it see a delta of 0, so a
// test that forgets to link `speakup_counted_new` must check counting()
// rather than silently passing (expect_zero() does this for you).
//
// Debugging an unexpected allocation: run the test with SPEAKUP_TRAP_ALLOC=1
// in the environment and arm the trap around the measured region with
// AllocGuard::set_trap(true). The first allocation inside the region dumps
// a raw backtrace to stderr and aborts; resolve the +0x offsets with
// `addr2line -f -C -e <test binary>`.
#pragma once

#include <atomic>
#include <cstdint>

namespace speakup::util {

namespace alloc_detail {
// Inline variables (C++17) so the counter exists exactly once per binary
// with no .cpp in the core library and no static-library ordering hazards.
// Relaxed atomics: the counter is also bumped from Runner worker threads,
// and a plain int64 here would be a genuine data race under TSan.
inline std::atomic<std::int64_t> g_allocations{0};
inline std::atomic<std::int64_t> g_allocated_bytes{0};
inline std::atomic<bool> g_counting_linked{false};
inline std::atomic<bool> g_trap_armed{false};
}  // namespace alloc_detail

class AllocGuard {
 public:
  AllocGuard() : start_(count()), start_bytes_(bytes()) {}

  /// operator-new calls since this guard was constructed.
  [[nodiscard]] std::int64_t delta() const { return count() - start_; }

  /// Bytes requested from operator new since this guard was constructed
  /// (allocated, not net of frees: a memory budget, not a leak check).
  [[nodiscard]] std::int64_t bytes_delta() const { return bytes() - start_bytes_; }

  /// Whether the counting operator new (speakup_counted_new) is linked into
  /// this binary. When false, delta() is always 0 and proves nothing.
  [[nodiscard]] static bool counting() {
    return alloc_detail::g_counting_linked.load(std::memory_order_relaxed);
  }

  /// delta() == 0, guarding against the vacuous-pass failure mode: a binary
  /// without the counting allocator reports NOT ok, never a silent zero.
  [[nodiscard]] bool expect_zero() const { return counting() && delta() == 0; }

  /// Arms/disarms the SPEAKUP_TRAP_ALLOC abort-on-allocate trap (honored by
  /// counted_new.cpp only when that env var is set; see the header comment).
  static void set_trap(bool armed) {
    alloc_detail::g_trap_armed.store(armed, std::memory_order_relaxed);
  }

  [[nodiscard]] static std::int64_t count() {
    return alloc_detail::g_allocations.load(std::memory_order_relaxed);
  }

  [[nodiscard]] static std::int64_t bytes() {
    return alloc_detail::g_allocated_bytes.load(std::memory_order_relaxed);
  }

 private:
  std::int64_t start_;
  std::int64_t start_bytes_;
};

}  // namespace speakup::util
