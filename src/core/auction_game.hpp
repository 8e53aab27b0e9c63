// The abstract auction game behind Theorem 3.1, plus its adversary-strategy
// registry.
//
// The game: one auction per service interval. A victim client continuously
// delivers an eps fraction of the thinner's inbound bandwidth; an adversary
// spends the remaining (1-eps) fraction across any number of sub-bidders
// with any timing. Theorem 3.1 says the victim still wins at least
// eps/(2-eps) of the auctions. `speakup report scenarios/abl5.json` sweeps
// that file's grid over the registered adversary strategies and prints the
// measured fraction next to the theoretical bounds (exp/report.cpp).
//
// Adversary strategies are C++ functions; the JSON grid refers to them BY
// NAME (exp::load_auction_game_file rejects names missing from the
// registry). Keep the timing logic here and the swept parameters in the
// scenario file.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace speakup::core {

/// Adversary bid state: sub-bidder id -> bytes banked toward that bid.
using AdversaryBids = std::map<int, double>;

/// Called once per tick: spend `budget` ((1-eps) x interval) across the
/// bids, optionally reacting to the victim's visible `victim_bid`.
using AdversaryFn =
    std::function<void(int tick, AdversaryBids& bids, double victim_bid, double budget)>;

/// Looks up a registered adversary; throws std::invalid_argument listing
/// the registered names, in registration order, when absent.
[[nodiscard]] const AdversaryFn& adversary_fn(const std::string& name);

/// Plays `ticks` auctions and returns the fraction the victim won. `delta`
/// perturbs each interval's budget by U[1-delta, 1+delta] (service-time
/// fluctuation: a longer interval lets everyone pay more before the next
/// auction).
[[nodiscard]] double run_auction_game(double eps, double delta, int ticks,
                                      util::RngStream& rng, const AdversaryFn& adversary);

}  // namespace speakup::core
