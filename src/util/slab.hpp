// speakup-lint: hot-path (allocation-free steady state; growth sites must
// be amortized and allowlisted in tools/lint_allowlist.txt)
//
// The one record store behind the simulator's per-network and per-pool
// objects: links, packets held by links, TCP connections, client requests,
// backlogged arrivals and message streams.
//
// Records sit in fixed chunks of N that never move (the rest of the stack
// holds T& and T*) and are addressed by dense 32-bit indices. An erased
// record joins a LIFO free list threaded through its own bytes, and
// emplace() reuses the most recently erased record first. So a store grows,
// one chunk per N records, only when its live records reach a new peak;
// at a stable peak it never touches the allocator, and which index a
// record gets is a fixed function of the emplace/erase sequence.
//
// IndexList is the FIFO that a drop-tail queue or a client's backlog
// threads through a `next` index kept in each of its records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/audit.hpp"

namespace speakup::util {

/// The "no record" index of every Slab and IndexList.
inline constexpr std::uint32_t kNil = UINT32_MAX;

template <typename T, std::uint32_t N>
class Slab {
  static_assert(N > 0 && (N & (N - 1)) == 0, "the chunk length must be a power of two");

 public:
  /// Records per chunk; a power of two, so index -> record is a shift and a
  /// mask.
  static constexpr std::uint32_t kChunk = N;

  Slab() = default;
  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;
  /// Destroys the live records; erased ones were destroyed by erase().
  ~Slab() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      if (in_use_ == 0) return;
      const std::vector<std::uint8_t> live = live_map();
      for (std::uint32_t i = 0; i < size_; ++i) {
        if (live[i]) std::destroy_at(&slot(i).value);
      }
    }
  }

  /// Constructs a record from `args` in the most recently erased slot, or
  /// at index size() (adding a chunk when the last one is full). Returns
  /// its index.
  template <typename... Args>
  std::uint32_t emplace(Args&&... args) {
    const bool reuse = free_head_ != kNil;
    const std::uint32_t i = reuse ? free_head_ : size_;
    if (i / N == chunks_.size()) chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(N));
    Slot& s = slot(i);
    const std::uint32_t next_free = reuse ? s.next_free : kNil;
    std::construct_at(&s.value, std::forward<Args>(args)...);
    if (reuse) {
      free_head_ = next_free;
    } else {
      ++size_;
    }
    ++in_use_;
    return i;
  }

  /// Destroys record `i` and puts its slot at the head of the free list.
  void erase(std::uint32_t i) {
    SPEAKUP_ASSERT(i < size_ && in_use_ > 0);
    Slot& s = slot(i);
    std::destroy_at(&s.value);
    s.next_free = free_head_;
    free_head_ = i;
    --in_use_;
  }

  /// Record `i`, which must be live. The slab's constness guards its shape,
  /// not its records: a const store still hands out mutable records.
  [[nodiscard]] T& operator[](std::uint32_t i) const { return slot(i).value; }

  /// Records ever made: the peak of live records at once.
  [[nodiscard]] std::uint32_t size() const { return size_; }
  /// Live records.
  [[nodiscard]] std::uint32_t in_use() const { return in_use_; }
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }

#if SPEAKUP_AUDIT_ENABLED
  /// Structural audit (SPEAKUP_AUDIT builds only): the free list holds
  /// in-range records, each once, and with the live ones covers every
  /// record. Returns the live map (1 = live, by index) for the owner's own
  /// checks.
  [[nodiscard]] std::vector<std::uint8_t> audit() const { return live_map(); }
#endif

 private:
  union Slot {
    Slot() {}
    ~Slot() {}
    T value;                  // while live
    std::uint32_t next_free;  // while free: the next free index, or kNil
  };

  [[nodiscard]] Slot& slot(std::uint32_t i) const { return chunks_[i / N][i % N]; }

  [[nodiscard]] std::vector<std::uint8_t> live_map() const {
    std::vector<std::uint8_t> live(size_, 1);
    std::uint32_t freed = 0;
    for (std::uint32_t i = free_head_; i != kNil; i = slot(i).next_free, ++freed) {
      SPEAKUP_AUDIT_CHECK(i < size_, "Slab: free-list index out of range");
      SPEAKUP_AUDIT_CHECK(live[i], "Slab: record erased twice");
      live[i] = 0;
    }
    SPEAKUP_AUDIT_CHECK(freed + in_use_ == size_,
                        "Slab: every record must be live or on the free list");
    return live;
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t size_ = 0;
  std::uint32_t in_use_ = 0;
  std::uint32_t free_head_ = kNil;
};

/// A FIFO of records of one Slab, threaded through the index member `Next`
/// of each record: head, tail and count in 12 bytes. A record is on at most
/// one list at a time.
template <auto Next>
struct IndexList {
  std::uint32_t head = kNil;
  std::uint32_t tail = kNil;
  std::uint32_t count = 0;

  template <typename S>
  void push_back(const S& slab, std::uint32_t i) {
    slab[i].*Next = kNil;
    if (count == 0) {
      head = i;
    } else {
      slab[tail].*Next = i;
    }
    tail = i;
    ++count;
  }

  /// Unlinks the head record and returns its index.
  template <typename S>
  std::uint32_t pop_front(const S& slab) {
    SPEAKUP_ASSERT(count > 0);
    const std::uint32_t i = head;
    head = slab[i].*Next;
    if (--count == 0) tail = kNil;
    return i;
  }

#if SPEAKUP_AUDIT_ENABLED
  /// Walks the list head to tail, calling visit(i) on each record before
  /// following its link; the walk must end at `tail` after `count` records.
  template <typename S, typename Visit>
  void audit(const S& slab, Visit&& visit) const {
    std::uint32_t walked = 0;
    std::uint32_t last = kNil;
    for (std::uint32_t i = head; i != kNil; last = i, i = slab[i].*Next) {
      SPEAKUP_AUDIT_CHECK(i < slab.size(), "IndexList: index out of range");
      SPEAKUP_AUDIT_CHECK(++walked <= count, "IndexList: list longer than its count");
      visit(i);
    }
    SPEAKUP_AUDIT_CHECK(walked == count && last == tail,
                        "IndexList: the walk must end at tail after count records");
  }
#endif
};

}  // namespace speakup::util
