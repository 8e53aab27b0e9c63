// The counting global operator new / delete behind util::AllocGuard.
//
// Built as the `speakup_counted_new` object library and linked into test
// binaries only — NOT into libspeakup — so linking the simulator never
// changes a host program's allocator. (Object, not archive: nothing
// references these symbols by name, so an archive member would be dropped.) Replacing these
// signatures is sanitizer-safe: ASan intercepts the malloc/free underneath,
// so leak checking and poisoning still work, and the counter is a relaxed
// atomic so the override is race-free under TSan.
#include <cstdio>
#include <cstdlib>
#include <new>

#include "util/alloc_guard.hpp"

#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define SPEAKUP_HAVE_BACKTRACE 1
#else
#define SPEAKUP_HAVE_BACKTRACE 0
#endif

namespace {

// Registers "counting is live" at static-init time so AllocGuard::counting()
// is accurate even before the first allocation.
struct CountingMarker {
  CountingMarker() {
    speakup::util::alloc_detail::g_counting_linked.store(true, std::memory_order_relaxed);
  }
};
CountingMarker g_marker;

// `align` is 0 for the plain forms (malloc's alignment) and the requested
// alignment for the std::align_val_t forms.
void* counted_alloc_nothrow(std::size_t size, std::size_t align = 0) noexcept {
  using namespace speakup::util::alloc_detail;
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(static_cast<std::int64_t>(size), std::memory_order_relaxed);
  if (g_trap_armed.load(std::memory_order_relaxed) &&
      std::getenv("SPEAKUP_TRAP_ALLOC") != nullptr) {
    // Opt-in debugging: dump the offending stack — resolve the +0x offsets
    // with `addr2line -f -C -e <this binary>` — then die loudly.
#if SPEAKUP_HAVE_BACKTRACE
    void* frames[32];
    backtrace_symbols_fd(frames, backtrace(frames, 32), 2);
#else
    std::fputs("speakup: allocation inside an armed AllocGuard trap\n", stderr);
#endif
    std::abort();
  }
  if (align == 0) return std::malloc(size);
  // aligned_alloc wants a size that is a non-zero multiple of the alignment
  // (ASan enforces it); free() releases what it returns.
  const std::size_t rounded = ((size == 0 ? 1 : size) + align - 1) & ~(align - 1);
  if (rounded < size) return nullptr;
  return std::aligned_alloc(align, rounded);
}

void* counted_alloc(std::size_t size, std::size_t align = 0) {
  if (void* p = counted_alloc_nothrow(size, align)) return p;
  throw std::bad_alloc();
}

}  // namespace

// The nothrow variants MUST be overridden alongside the throwing ones:
// libstdc++'s stable_sort temporary buffer allocates via
// `operator new(n, std::nothrow)` and releases via plain `operator delete`.
// With only the plain forms replaced, ASan pairs its own interposed
// nothrow-new (chunk tagged "operator new") with our free()-based delete
// and reports alloc-dealloc-mismatch — found by the ASan CI job on
// ResultWriter::merge_csv, pinned by util_test's AllocGuard.CountsNothrowNew.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

// The std::align_val_t forms serve every type aligned past 16 B (the event
// loop's `alignas(64)` slab record among them). Left unreplaced, libstdc++
// calls aligned_alloc itself and AllocGuard never sees that storage grow —
// pinned by util_test's AllocGuard.CountsOverAlignedNew.
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size, static_cast<std::size_t>(align));
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
