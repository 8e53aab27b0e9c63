// The virtual-auction mechanism in isolation: per-bidder byte accounts and
// the thinner's selection rule (most bytes wins; ties go to the
// earliest-registered bidder).
//
// AuctionBook is the abstract model of §3.3's mechanism — the object that
// Theorem 3.1 reasons about. The Theorem 3.1 validation tests drive it
// directly with adversarial payment schedules; it is also the reference for
// the selection logic embedded in the thinners.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "util/assert.hpp"
#include "util/units.hpp"

namespace speakup::core {

class AuctionBook {
 public:
  /// Registers a bidder (idempotent). Registration order breaks ties.
  void register_bidder(std::uint64_t id) {
    if (accounts_.find(id) == accounts_.end()) {
      accounts_[id] = Account{0.0, next_rank_++, true};
    }
  }

  /// Credits payment to a bidder, registering it if needed.
  void credit(std::uint64_t id, double amount) {
    SPEAKUP_ASSERT(amount >= 0);
    register_bidder(id);
    accounts_[id].bid += amount;
  }

  /// Marks a bidder (in)eligible to win without touching its balance —
  /// the thinner's "payment arrived but the request has not" state.
  void set_eligible(std::uint64_t id, bool eligible) {
    register_bidder(id);
    accounts_[id].eligible = eligible;
  }

  /// Removes a bidder entirely (eviction / service complete).
  void remove(std::uint64_t id) { accounts_.erase(id); }

  /// Zeroes a bidder's balance (§5: payment consumed by a quantum).
  void reset_bid(std::uint64_t id) {
    const auto it = accounts_.find(id);
    if (it != accounts_.end()) it->second.bid = 0.0;
  }

  [[nodiscard]] double bid(std::uint64_t id) const {
    const auto it = accounts_.find(id);
    return it == accounts_.end() ? 0.0 : it->second.bid;
  }

  [[nodiscard]] bool contains(std::uint64_t id) const {
    return accounts_.find(id) != accounts_.end();
  }

  [[nodiscard]] std::size_t size() const { return accounts_.size(); }

  /// The §3.3 selection rule: highest bid among eligible bidders; ties go
  /// to the earliest registration. nullopt if nobody is eligible.
  [[nodiscard]] std::optional<std::uint64_t> winner() const {
    const Account* best = nullptr;
    std::uint64_t best_id = 0;
    for (const auto& [id, acct] : accounts_) {
      if (!acct.eligible) continue;
      if (best == nullptr || acct.bid > best->bid ||
          (acct.bid == best->bid && acct.rank < best->rank)) {
        best = &acct;
        best_id = id;
      }
    }
    if (best == nullptr) return std::nullopt;
    return best_id;
  }

  /// Convenience: run one auction — pick the winner, zero its balance and
  /// return it (the flat thinner would then admit it and drop the account;
  /// the quantum thinner keeps it for the next round).
  std::optional<std::uint64_t> settle() {
    const auto w = winner();
    if (w.has_value()) reset_bid(*w);
    return w;
  }

 private:
  struct Account {
    double bid = 0.0;
    std::uint64_t rank = 0;  // registration order
    bool eligible = true;
  };

  std::unordered_map<std::uint64_t, Account> accounts_;
  std::uint64_t next_rank_ = 0;
};

}  // namespace speakup::core
