#include "core/auction_thinner.hpp"

#include "util/assert.hpp"

namespace speakup::core {

using http::Message;
using http::MessageType;

void AuctionThinner::grant(Request& r) {
  SPEAKUP_ASSERT(!server_.busy());
  SPEAKUP_ASSERT(r.has_request && !r.serving);
  r.serving = true;
  r.expiry.cancel();
  const double price = static_cast<double>(r.paid);
  const double pay_time =
      r.started_paying ? (host_->loop().now() - r.first_payment).sec() : 0.0;
  count_served(r.cls);
  sample(r.cls, stats_.price_good, stats_.price_bad, price);
  sample(r.cls, stats_.payment_time_good, stats_.payment_time_bad, pay_time);
  if (!r.started_paying) ++stats_.direct_admissions;
  observe_admission(r.cls, price, /*direct=*/!r.started_paying);
  if (r.payment != nullptr) {
    // Terminate the payment channel (§3.3): the client stops paying.
    r.payment->send(Message{.type = MessageType::kWin, .request_id = r.id, .cls = r.cls});
  }
  server_.submit(server::ServiceRequest{r.id, r.cls, r.difficulty});
}

void AuctionThinner::on_request_abandoned(Request& r) {
  // Without a request channel the request can never be answered, so drop
  // it and its payment channel, unless it already holds the server.
  if (!r.serving) destroy(r.id, /*abort_sessions=*/true);
}

void AuctionThinner::on_server_complete(const server::ServiceRequest& done) {
  if (Request* r = find(done.request_id)) {
    respond(r->session, r->id, r->cls);
    // Sessions stay open until the client closes them; the reset handler
    // retires streams that no longer map to a request.
    destroy(done.request_id, /*abort_sessions=*/false);
  }
  // The virtual auction for the free server.
  if (Request* best = top_bidder()) {
    ++stats_.auctions_held;
    if (auto* o = observer()) o->on_auction_clear(static_cast<double>(best->paid));
    grant(*best);
  }
}

}  // namespace speakup::core
