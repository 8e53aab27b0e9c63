// speakup-lint: hot-path (allocation-free steady state; growth sites must
// be amortized and allowlisted in tools/lint_allowlist.txt)
//
// The one store of links for a whole Network.
//
// Links sit by value in fixed-size chunks that never move (routes, the
// adjacency and every event a link schedules hold Link* or Link&), and are
// addressed by dense 32-bit indices in connect() order. A 10^5-leaf access
// tree thus costs one allocation per kChunk links instead of one heap
// object per link. Links are never removed; the store destroys them in
// index order with itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "net/link.hpp"

namespace speakup::net {

class LinkStore {
 public:
  /// Links per chunk (about 46 KB). A power of two, so index -> link is a
  /// shift and a mask.
  static constexpr std::uint32_t kChunk = 256;

  LinkStore() = default;
  LinkStore(const LinkStore&) = delete;
  LinkStore& operator=(const LinkStore&) = delete;
  ~LinkStore() {
    for (std::uint32_t i = 0; i < size_; ++i) (*this)[i].~Link();
  }

  /// Constructs a link at index size(), adding a chunk when the last one
  /// is full.
  template <typename... Args>
  Link& emplace_back(Args&&... args) {
    if (size_ % kChunk == 0) chunks_.push_back(std::make_unique_for_overwrite<Raw[]>(kChunk));
    Raw& raw = chunks_[size_ / kChunk][size_ % kChunk];
    Link* link = ::new (static_cast<void*>(raw.bytes)) Link(std::forward<Args>(args)...);
    ++size_;
    return *link;
  }

  [[nodiscard]] Link& operator[](std::uint32_t i) const {
    return *std::launder(reinterpret_cast<Link*>(chunks_[i / kChunk][i % kChunk].bytes));
  }

  [[nodiscard]] std::uint32_t size() const { return size_; }

 private:
  struct alignas(Link) Raw {
    std::byte bytes[sizeof(Link)];
  };

  std::vector<std::unique_ptr<Raw[]>> chunks_;
  std::uint32_t size_ = 0;
};

}  // namespace speakup::net
