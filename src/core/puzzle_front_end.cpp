#include "core/puzzle_front_end.hpp"

#include "util/assert.hpp"

namespace speakup::core {

using http::ClientClass;
using http::Message;
using http::MessageStream;
using http::MessageType;

namespace {
// Runs before the base class starts listening, so a rejected config leaves
// no listener behind.
const FrontEndConfig& checked(const FrontEndConfig& cfg) {
  util::require(cfg.puzzle_cost > Duration::zero(), "puzzle cost must be positive");
  return cfg;
}
}  // namespace

PuzzleFrontEnd::PuzzleFrontEnd(transport::Host& host, const FrontEndConfig& cfg,
                               util::RngStream server_rng)
    : Thinner(host, checked(cfg), std::move(server_rng)) {}

void PuzzleFrontEnd::on_request(MessageStream& s, const Message& m) {
  if (m.type != MessageType::kRequest) return;
  ++stats_.requests_received;
  const SimTime now = host_->loop().now();
  Tracked& t = requests_[m.request_id] = Tracked{m.cls, m.difficulty, &s, now, now};
  by_stream_[&s] = m.request_id;
  if (!server_.busy() && ready_.empty()) {
    // Idle server, no solved work queued: admit at price 0, like the
    // auction's direct admissions.
    ++stats_.direct_admissions;
    observe_admission(m.cls, 0.0, /*direct=*/true);
    count_served(m.cls);
    server_.submit(server::ServiceRequest{m.request_id, m.cls, m.difficulty});
    return;
  }
  // Hold the request and charge the client CPU time: puzzles solve one at a
  // time per client, so back-to-back requests queue behind each other.
  const std::uint32_t client = static_cast<std::uint32_t>(m.request_id >> 32);
  SimTime start = now;
  const auto it = client_cpu_free_.find(client);
  if (it != client_cpu_free_.end() && it->second > start) start = it->second;
  t.solve_done = start + cfg_.puzzle_cost * m.difficulty;
  client_cpu_free_[client] = t.solve_done;
  const std::uint64_t id = m.request_id;
  host_->loop().schedule(t.solve_done - now, [this, id] { on_solved(id); });
}

void PuzzleFrontEnd::on_solved(std::uint64_t id) {
  const auto it = requests_.find(id);
  if (it == requests_.end()) return;  // client reset and was dropped
  ready_.insert({it->second.solve_done.ns(), id});
  stats_.counters.inc("puzzle_solved");
  if (auto* o = observer()) o->on_puzzle_solved();
  if (!server_.busy()) admit_next();
}

void PuzzleFrontEnd::admit_next() {
  if (ready_.empty() || server_.busy()) return;
  const auto first = ready_.begin();
  const std::uint64_t id = first->second;
  ready_.erase(first);
  const Tracked& t = requests_.at(id);
  stats_.counters.inc("puzzle_admitted");
  count_served(t.cls);
  // The puzzle "price" is compute: record the request's wait from arrival
  // to admission as its price and in the payment-time samples the other
  // currencies use.
  const double waited = (host_->loop().now() - t.arrived).sec();
  observe_admission(t.cls, waited, /*direct=*/false);
  if (auto* o = observer()) o->on_puzzle_admitted(waited);
  sample(t.cls, stats_.payment_time_good, stats_.payment_time_bad, waited);
  server_.submit(server::ServiceRequest{id, t.cls, t.difficulty});
}

void PuzzleFrontEnd::on_server_complete(const server::ServiceRequest& done) {
  const auto it = requests_.find(done.request_id);
  if (it != requests_.end()) {
    respond(it->second.session, done.request_id, it->second.cls);
    requests_.erase(it);
  }
  admit_next();
}

void PuzzleFrontEnd::on_stream_lost(std::uint64_t id, MessageStream& /*s*/) {
  // Keep solving/ready state (the admission queue stays deterministic);
  // only the response sink goes away.
  const auto it = requests_.find(id);
  if (it != requests_.end()) it->second.session = nullptr;
}

}  // namespace speakup::core
