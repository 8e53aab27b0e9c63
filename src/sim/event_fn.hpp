// Small-buffer-only callback type for the event loop's hot path.
//
// A scheduled callback in this simulator is almost always a tiny closure —
// `[this]`, `[this, slot]`, a couple of references — yet std::function heap-
// allocates anything bigger than its two-pointer SBO. EventFn stores the
// callable inline in a 24-byte buffer and accepts only closures that are
// trivially copyable and trivially destructible: moving one is a byte copy
// and dropping one is a no-op, so the event slab copies callbacks in and
// out and never calls back into the closure except to run it. A call site
// that genuinely needs a big or owning capture keeps the state elsewhere
// and captures a pointer to it — making the ownership explicit at the call
// site instead of hidden in the loop.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace speakup::sim {

class EventFn {
 public:
  /// Inline storage size: the whole tree's closures are <= 24 bytes —
  /// `[this]`, `[this, slot]`, `[this, key]` — and 24 plus the invoke
  /// pointer leaves the event record room for its wheel links.
  static constexpr std::size_t kCapacity = 24;

  /// What EventFn can hold. A constraint, not a static_assert, so
  /// `std::is_constructible_v<EventFn, F>` reports a refused closure.
  template <typename F, typename Fn = std::decay_t<F>>
  static constexpr bool kStorable =
      !std::is_same_v<Fn, EventFn> && std::is_invocable_r_v<void, Fn&> &&
      std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn> &&
      sizeof(Fn) <= kCapacity && alignof(Fn) <= alignof(void*);

  EventFn() = default;

  template <typename F>
    requires kStorable<F>
  EventFn(F&& f) noexcept {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::decay_t<F>;
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    invoke_ = [](void* b) { (*std::launder(static_cast<Fn*>(b)))(); };
  }

  /// Moving copies the bytes and empties the source.
  EventFn(EventFn&& other) noexcept : invoke_(other.invoke_) {
    std::memcpy(buf_, other.buf_, kCapacity);
    other.invoke_ = nullptr;
  }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      std::memcpy(buf_, other.buf_, kCapacity);
      invoke_ = other.invoke_;
      other.invoke_ = nullptr;
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

  void operator()() { invoke_(buf_); }

 private:
  // Zeroed so that copying a short capture never reads indeterminate bytes.
  alignas(void*) std::byte buf_[kCapacity] = {};
  void (*invoke_)(void*) = nullptr;
};

}  // namespace speakup::sim
