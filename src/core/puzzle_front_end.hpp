// Proof-of-work currency, the classic alternative (Aura et al., Juels &
// Brainard) the paper's §8 contrasts speak-up's bandwidth currency against.
// While the server is busy, incoming requests are held (no reply — the
// client's request simply waits) and the client is charged compute: each
// request must "solve a puzzle" costing puzzle_cost seconds per unit of
// request difficulty, and a client solves its puzzles one at a time. When
// the server frees up, the held request whose solve finished earliest is
// admitted (ties broken by request id, so admission order is
// deterministic).
//
// The contrast with the auction is the resource being priced: a client's
// admission rate here is capped at 1/puzzle_cost by its (serial) CPU no
// matter how many requests or how much bandwidth it throws at the front
// end, whereas the payment channel prices bandwidth. An attacker with lots
// of bandwidth but one CPU per bot gains nothing by flooding — but neither
// can a good client with a fat pipe buy more than 1/puzzle_cost of the
// server.
#pragma once

#include <cstdint>
#include <set>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/thinner.hpp"

namespace speakup::core {

class PuzzleFrontEnd : public Thinner<server::EmulatedServer> {
 public:
  PuzzleFrontEnd(transport::Host& host, const FrontEndConfig& cfg, util::RngStream server_rng);

  [[nodiscard]] std::string_view name() const override { return "puzzle"; }
  [[nodiscard]] std::size_t contending() const override { return requests_.size(); }

 private:
  struct Tracked {
    http::ClientClass cls = http::ClientClass::kNeutral;
    int difficulty = 1;
    http::MessageStream* session = nullptr;
    SimTime arrived;
    SimTime solve_done;
  };

  void on_request(http::MessageStream& s, const http::Message& m) override;
  void on_stream_lost(std::uint64_t id, http::MessageStream& s) override;
  void on_server_complete(const server::ServiceRequest& done) override;
  void on_solved(std::uint64_t id);
  void admit_next();

  std::unordered_map<std::uint64_t, Tracked> requests_;
  /// Solved requests awaiting admission, ordered (solve completion, id).
  std::set<std::pair<std::int64_t, std::uint64_t>> ready_;
  /// When each client's (serial) CPU frees up; key is request_id >> 32.
  std::unordered_map<std::uint32_t, SimTime> client_cpu_free_;
};

}  // namespace speakup::core
