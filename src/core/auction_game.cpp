#include "core/auction_game.hpp"

#include <stdexcept>
#include <utility>

namespace speakup::core {

namespace {

struct NamedAdversary {
  std::string name;
  AdversaryFn fn;
};

/// The strategy set from ablation A5: a saver, a splitter, the proof's
/// reactive worst case, and a burster. Registration order is display order.
const std::vector<NamedAdversary>& registry() {
  static const std::vector<NamedAdversary> all = {
      {"single-saver",
       [](int, AdversaryBids& b, double, double budget) { b[0] += budget; }},
      {"10-way-split",
       [](int, AdversaryBids& b, double, double budget) {
         for (int i = 0; i < 10; ++i) b[i] += budget / 10;
       }},
      {"reactive-outbidder",
       [](int, AdversaryBids& b, double victim, double budget) {
         b[1] += budget;  // bank
         const double need = victim - b[0];
         if (need > 0 && b[1] >= need) {
           b[0] += need;
           b[1] -= need;
         }
       }},
      {"bursty-hoard",
       [](int t, AdversaryBids& b, double, double budget) {
         b[1] += budget;
         if (t % 50 == 0) {  // dump the hoard into the active bid
           b[0] += b[1];
           b[1] = 0;
         }
       }},
  };
  return all;
}

}  // namespace

const AdversaryFn& adversary_fn(const std::string& name) {
  for (const NamedAdversary& a : registry()) {
    if (a.name == name) return a.fn;
  }
  std::string known;
  for (const NamedAdversary& a : registry()) known += known.empty() ? a.name : ", " + a.name;
  throw std::invalid_argument("unknown auction-game adversary '" + name +
                              "' (known: " + known + ")");
}

double run_auction_game(double eps, double delta, int ticks, util::RngStream& rng,
                        const AdversaryFn& adversary) {
  double victim_bid = 0.0;
  AdversaryBids adversary_bids;
  int victim_wins = 0;
  for (int t = 0; t < ticks; ++t) {
    const double interval = delta > 0 ? rng.uniform(1.0 - delta, 1.0 + delta) : 1.0;
    victim_bid += eps * interval;
    adversary(t, adversary_bids, victim_bid, (1.0 - eps) * interval);
    double best = 0.0;
    int best_id = -1;
    for (const auto& [id, bid] : adversary_bids) {
      if (bid > best) {
        best = bid;
        best_id = id;
      }
    }
    if (victim_bid > best) {
      ++victim_wins;
      victim_bid = 0.0;
    } else if (best_id >= 0) {
      adversary_bids[best_id] = 0.0;
    }
  }
  return static_cast<double>(victim_wins) / ticks;
}

}  // namespace speakup::core
