#include "core/quantum_thinner.hpp"

#include <algorithm>
#include <vector>

#include "util/assert.hpp"

namespace speakup::core {

using http::Message;
using http::MessageType;

QuantumAuctionThinner::QuantumAuctionThinner(transport::Host& host, const FrontEndConfig& cfg,
                                             util::RngStream server_rng)
    : PaymentThinner(host, cfg, std::move(server_rng), /*bids_while_serving=*/true),
      quantum_(cfg.quantum > Duration::zero() ? cfg.quantum
                                              : Duration::seconds(1.0 / cfg.capacity_rps)),
      quantum_timer_(host.loop()) {
  quantum_timer_.restart(quantum_, [this] { quantum_tick(); });
}

QuantumAuctionThinner::Request* QuantumAuctionThinner::active() {
  for (auto& [id, r] : requests_) {
    if (r.serving) return &r;
  }
  return nullptr;
}

void QuantumAuctionThinner::grant(Request& r) {
  SPEAKUP_ASSERT(!server_.busy());
  SPEAKUP_ASSERT(r.has_request && !r.serving);
  r.expiry.cancel();
  // A fresh grant is the admission (price = the bid being zeroed); a resume
  // after suspension is not a new admission.
  if (!r.suspended) observe_admission(r.cls, static_cast<double>(r.paid), !r.started_paying);
  if (auto* o = observer()) o->on_auction_clear(static_cast<double>(r.paid));
  r.paid = 0;  // §5 step 2: "set u's payment to zero"
  r.serving = true;
  if (r.suspended) {
    r.suspended = false;
    server_.resume(r.id);
  } else {
    server_.submit(server::ServiceRequest{r.id, r.cls, r.difficulty});
  }
}

void QuantumAuctionThinner::quantum_tick() {
  quantum_timer_.restart(quantum_, [this] { quantum_tick(); });
  ++stats_.auctions_held;
  Request* v = active();
  Request* u = top_bidder();
  if (v == nullptr) {
    if (u != nullptr && !server_.busy()) grant(*u);
  } else if (u != nullptr && u->paid > v->paid) {
    // §5 step 2: SUSPEND v, admit/RESUME u.
    server_.suspend();
    v->serving = false;
    v->suspended = true;
    v->suspended_at = host_->loop().now();
    stats_.counters.inc("suspensions");
    if (auto* o = observer()) o->on_quantum_suspension();
    grant(*u);
  } else {
    // §5 step 3: v continues but has not yet paid for the next quantum.
    v->paid = 0;
  }
  // §5 step 4: ABORT requests suspended too long, in id order.
  std::vector<std::uint64_t> to_abort;
  for (auto& [id, r] : requests_) {
    if (r.suspended && host_->loop().now() - r.suspended_at > cfg_.suspension_limit) {
      to_abort.push_back(id);
    }
  }
  std::sort(to_abort.begin(), to_abort.end());
  for (const std::uint64_t id : to_abort) abort_request(id);
}

void QuantumAuctionThinner::on_server_complete(const server::ServiceRequest& done) {
  if (Request* r = find(done.request_id)) {
    r->serving = false;
    if (r->payment != nullptr) {
      // Terminate the on-going payment: the client stops paying now.
      r->payment->send(Message{.type = MessageType::kWin, .request_id = r->id});
    }
    respond(r->session, r->id, r->cls);
    const double pay_time =
        r->started_paying ? (host_->loop().now() - r->first_payment).sec() : 0.0;
    count_served(r->cls);
    sample(r->cls, stats_.payment_time_good, stats_.payment_time_bad, pay_time);
    destroy(done.request_id, /*abort_sessions=*/false);
  }
  // Hand the free server to the best contender right away (the next
  // quantum tick would do it too; this avoids idling a full quantum).
  if (Request* u = top_bidder()) grant(*u);
}

void QuantumAuctionThinner::abort_request(std::uint64_t id) {
  Request* r = find(id);
  if (r == nullptr) return;
  if (r->serving) {
    // Abandoned while holding the server: suspend then discard.
    server_.suspend();
    r->serving = false;
    r->suspended = true;
  }
  if (r->suspended) server_.abort_suspended(id);
  stats_.counters.inc("aborts");
  if (auto* o = observer()) o->on_abort();
  // If the client is still there, kAborted tells it to stop paying and it
  // closes both channels itself; aborting here would kill the unsent
  // notification. If the client already abandoned the request, force-close.
  const bool client_gone = r->session == nullptr;
  if (!client_gone) {
    r->session->send(Message{.type = MessageType::kAborted, .request_id = id});
  }
  destroy(id, /*abort_sessions=*/client_gone);
  if (!server_.busy()) {
    if (Request* u = top_bidder()) grant(*u);
  }
}

}  // namespace speakup::core
