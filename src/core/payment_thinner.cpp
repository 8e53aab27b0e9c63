#include "core/payment_thinner.hpp"

#include "server/interruptible_server.hpp"
#include "util/assert.hpp"

namespace speakup::core {

using http::ClientClass;
using http::Message;
using http::MessageStream;
using http::MessageType;

template <class Server>
PaymentThinner<Server>::PaymentThinner(transport::Host& host, const FrontEndConfig& cfg,
                                       util::RngStream server_rng, bool bids_while_serving)
    : Thinner<Server>(host, cfg, std::move(server_rng)),
      bids_while_serving_(bids_while_serving) {
  host.listen(cfg.payment_port, [this](transport::TcpConnection& conn) {
    MessageStream& s = this->pool_.adopt(conn);
    MessageStream::Callbacks cbs;
    cbs.on_message = [this, &s](const Message& m) { on_payment(s, m); };
    cbs.on_body_progress = [this, &s](const Message& m, Bytes n) {
      on_payment_progress(s, m, n);
    };
    cbs.on_reset = [this, &s] { this->on_reset(s); };
    s.set_callbacks(std::move(cbs));
  });
}

template <class Server>
void PaymentThinner<Server>::on_request(MessageStream& s, const Message& m) {
  if (m.type != MessageType::kRequest) return;  // ignore anything malformed
  ++this->stats_.requests_received;
  Request& r = get_or_create(m.request_id, m.cls);
  if (r.has_request) return;  // duplicate request
  r.cls = m.cls;
  r.difficulty = m.difficulty;
  r.has_request = true;
  r.session = &s;
  this->by_stream_[&s] = r.id;
  // The missing-request window no longer applies; from here the request
  // lives until the auction's own rules retire it.
  r.expiry.cancel();
  if (!this->server_.busy()) {
    // Idle server: grant without payment. (A request that paid ahead of its
    // delayed kRequest, the §7.3 overpayment case, keeps its bid.)
    grant(r);
  } else {
    s.send(Message{.type = MessageType::kPleasePay, .request_id = r.id});
  }
}

template <class Server>
void PaymentThinner<Server>::on_payment(MessageStream& s, const Message& m) {
  if (m.type == MessageType::kPostData) {
    // A full POST was consumed; tell the client to send the next one
    // (paper: the thinner returns JavaScript causing another POST).
    s.send(Message{.type = MessageType::kPostContinue, .request_id = m.request_id});
    return;
  }
  if (m.type != MessageType::kPayOpen) return;
  Request& r = get_or_create(m.request_id, m.cls);
  if (r.serving && !bids_while_serving_) return;  // stale channel for an admitted request
  r.payment = &s;
  this->by_stream_[&s] = r.id;
  if (!r.started_paying) {
    r.started_paying = true;
    r.first_payment = this->host_->loop().now();
  }
}

template <class Server>
void PaymentThinner<Server>::on_payment_progress(MessageStream& s, const Message& m,
                                                 Bytes newly) {
  if (m.type != MessageType::kPostData) return;
  this->stats_.payment_bytes_total += newly;
  this->stats_.payment_rate.add(this->host_->loop().now(), static_cast<double>(newly));
  const auto it = this->by_stream_.find(&s);
  Request* r = it == this->by_stream_.end() ? nullptr : find(it->second);
  if (r == nullptr || (r->serving && !bids_while_serving_)) return;
  r->paid += newly;
}

template <class Server>
void PaymentThinner<Server>::on_stream_lost(std::uint64_t id, MessageStream& s) {
  Request* r = find(id);
  if (r == nullptr) return;
  if (r->session == &s) {
    r->session = nullptr;
    on_request_abandoned(*r);
  } else if (r->payment == &s) {
    // Payment channels churn between POSTs; accounting persists.
    r->payment = nullptr;
  }
}

template <class Server>
typename PaymentThinner<Server>::Request& PaymentThinner<Server>::get_or_create(
    std::uint64_t id, ClientClass cls) {
  sim::EventLoop& loop = this->host_->loop();
  const auto [it, inserted] = requests_.try_emplace(id, loop, id, cls, loop.now());
  if (inserted) it->second.expiry.restart(this->cfg_.payment_window, [this, id] { expire(id); });
  return it->second;
}

template <class Server>
typename PaymentThinner<Server>::Request* PaymentThinner<Server>::find(std::uint64_t id) {
  const auto it = requests_.find(id);
  return it == requests_.end() ? nullptr : &it->second;
}

template <class Server>
typename PaymentThinner<Server>::Request* PaymentThinner<Server>::top_bidder() {
  Request* best = nullptr;
  for (auto& [id, r] : requests_) {
    if (!r.has_request || r.serving) continue;
    if (best == nullptr || r.paid > best->paid ||
        (r.paid == best->paid &&
         (r.created < best->created || (r.created == best->created && r.id < best->id)))) {
      best = &r;
    }
  }
  return best;
}

template <class Server>
void PaymentThinner<Server>::expire(std::uint64_t id) {
  Request* r = find(id);
  if (r == nullptr) return;
  SPEAKUP_ASSERT(!r->serving && !r->suspended);  // a grant cancels the window
  ++this->stats_.channels_expired;
  this->stats_.payment_bytes_wasted += r->paid;
  if (auto* o = this->observer()) o->on_channel_expired(static_cast<double>(r->paid));
  destroy(id, /*abort_sessions=*/true);
}

template <class Server>
void PaymentThinner<Server>::destroy(std::uint64_t id, bool abort_sessions) {
  const auto it = requests_.find(id);
  if (it == requests_.end()) return;
  for (MessageStream* s : {it->second.session, it->second.payment}) {
    if (s == nullptr) continue;
    this->by_stream_.erase(s);
    if (abort_sessions) this->pool_.retire(s);
  }
  requests_.erase(it);
}

template class PaymentThinner<server::EmulatedServer>;
template class PaymentThinner<server::InterruptibleServer>;

}  // namespace speakup::core
