#include "core/auction_thinner.hpp"

#include "obs/observer.hpp"
#include "util/log.hpp"

namespace {
// obs::Cls mirrors http::ClientClass value for value.
speakup::obs::Cls obs_cls(speakup::http::ClientClass c) {
  return static_cast<speakup::obs::Cls>(c);
}
}  // namespace

namespace speakup::core {

using http::ClientClass;
using http::Message;
using http::MessageStream;
using http::MessageType;

AuctionThinner::AuctionThinner(transport::Host& host, const Config& cfg,
                               util::RngStream server_rng)
    : host_(&host),
      cfg_(cfg),
      server_(host.loop(), cfg.capacity_rps, std::move(server_rng)),
      pool_(host.loop()) {
  server_.set_on_complete([this](const server::ServiceRequest& r) { on_server_complete(r); });
  host.listen(cfg_.request_port,
              [this](transport::TcpConnection& c) { on_request_accept(c); });
  host.listen(cfg_.payment_port,
              [this](transport::TcpConnection& c) { on_payment_accept(c); });
}

void AuctionThinner::on_request_accept(transport::TcpConnection& conn) {
  MessageStream& s = pool_.adopt(conn);
  MessageStream::Callbacks cbs;
  cbs.on_message = [this, &s](const Message& m) { on_request_message(s, m); };
  cbs.on_reset = [this, &s] { on_stream_reset(s); };
  s.set_callbacks(std::move(cbs));
}

void AuctionThinner::on_payment_accept(transport::TcpConnection& conn) {
  MessageStream& s = pool_.adopt(conn);
  MessageStream::Callbacks cbs;
  cbs.on_message = [this, &s](const Message& m) { on_payment_message(s, m); };
  cbs.on_body_progress = [this, &s](const Message& m, Bytes n) {
    on_payment_progress(s, m, n);
  };
  cbs.on_reset = [this, &s] { on_stream_reset(s); };
  s.set_callbacks(std::move(cbs));
}

void AuctionThinner::on_request_message(MessageStream& s, const Message& m) {
  if (m.type != MessageType::kRequest) return;  // ignore anything malformed
  ++stats_.requests_received;
  RequestState& st = get_or_create(m.request_id, m.cls);
  if (st.serving || st.has_request) return;  // duplicate request
  st.cls = m.cls;
  st.difficulty = m.difficulty;
  st.has_request = true;
  st.request_session = &s;
  by_stream_[&s] = st.id;
  // The missing-request window no longer applies; from here the state lives
  // until it wins or the client abandons the request channel.
  st.expiry->cancel();
  if (!server_.busy()) {
    // Idle server: admit without payment. (If the state had been paying
    // ahead of its delayed request — the §7.3 overpayment case — its paid
    // bytes are recorded as its price.)
    admit(st);
  } else {
    s.send(Message{.type = MessageType::kPleasePay, .request_id = st.id});
  }
}

void AuctionThinner::on_payment_message(MessageStream& s, const Message& m) {
  switch (m.type) {
    case MessageType::kPayOpen: {
      RequestState& st = get_or_create(m.request_id, m.cls);
      if (st.serving) return;  // stale channel for an admitted request
      st.payment_session = &s;
      by_stream_[&s] = st.id;
      if (!st.started_paying) {
        st.started_paying = true;
        st.first_payment = host_->loop().now();
      }
      break;
    }
    case MessageType::kPostData: {
      // A full POST was consumed; tell the client to send the next one
      // (paper: the thinner returns JavaScript causing another POST).
      s.send(Message{.type = MessageType::kPostContinue, .request_id = m.request_id});
      break;
    }
    default:
      break;
  }
}

void AuctionThinner::on_payment_progress(MessageStream& s, const Message& m, Bytes newly) {
  if (m.type != MessageType::kPostData) return;
  stats_.payment_bytes_total += newly;
  stats_.payment_rate.add(host_->loop().now(), static_cast<double>(newly));
  RequestState* st = state_for(s);
  if (st == nullptr || st->serving) return;
  st->paid += newly;
}

void AuctionThinner::on_stream_reset(MessageStream& s) {
  const auto it = by_stream_.find(&s);
  if (it == by_stream_.end()) {
    pool_.retire(&s);
    return;
  }
  const std::uint64_t id = it->second;
  by_stream_.erase(it);
  const auto sit = states_.find(id);
  if (sit != states_.end()) {
    RequestState& st = *sit->second;
    if (st.request_session == &s) {
      st.request_session = nullptr;
      // The client abandoned the request itself; without a request channel
      // the request can never be served, so drop the whole state.
      if (!st.serving) {
        pool_.retire(&s);
        destroy_state(id, /*abort_sessions=*/true);
        return;
      }
    } else if (st.payment_session == &s) {
      // Payment channels churn between POSTs; accounting persists.
      st.payment_session = nullptr;
    }
  }
  pool_.retire(&s);
}

AuctionThinner::RequestState& AuctionThinner::get_or_create(std::uint64_t id, ClientClass cls) {
  const auto it = states_.find(id);
  if (it != states_.end()) return *it->second;
  auto st = std::make_unique<RequestState>();
  st->id = id;
  st->cls = cls;
  st->created = host_->loop().now();
  st->expiry = std::make_unique<sim::Timer>(host_->loop());
  st->expiry->restart(cfg_.payment_window, [this, id] { expire(id); });
  RequestState& ref = *st;
  states_[id] = std::move(st);
  return ref;
}

AuctionThinner::RequestState* AuctionThinner::state_for(MessageStream& s) {
  const auto it = by_stream_.find(&s);
  if (it == by_stream_.end()) return nullptr;
  const auto sit = states_.find(it->second);
  return sit == states_.end() ? nullptr : sit->second.get();
}

void AuctionThinner::admit(RequestState& st) {
  SPEAKUP_ASSERT(!server_.busy());
  SPEAKUP_ASSERT(st.has_request && !st.serving);
  st.serving = true;
  st.expiry->cancel();
  const double price = static_cast<double>(st.paid);
  const double pay_time =
      st.started_paying ? (host_->loop().now() - st.first_payment).sec() : 0.0;
  if (st.cls == ClientClass::kGood) {
    ++stats_.served_good;
    stats_.price_good.add(price);
    stats_.payment_time_good.add(pay_time);
  } else if (st.cls == ClientClass::kBad) {
    ++stats_.served_bad;
    stats_.price_bad.add(price);
    stats_.payment_time_bad.add(pay_time);
  } else {
    ++stats_.served_other;
  }
  if (!st.started_paying) ++stats_.direct_admissions;
  if (auto* o = host_->loop().observer()) {
    o->on_admission(obs_cls(st.cls), price, /*direct=*/!st.started_paying);
  }
  if (st.payment_session != nullptr) {
    // Terminate the payment channel (§3.3): the client stops paying.
    st.payment_session->send(
        Message{.type = MessageType::kWin, .request_id = st.id, .cls = st.cls});
  }
  server_.submit(server::ServiceRequest{st.id, st.cls, st.difficulty});
}

void AuctionThinner::run_auction() {
  SPEAKUP_ASSERT(!server_.busy());
  RequestState* best = nullptr;
  for (auto& [id, st] : states_) {
    if (!st->has_request || st->serving) continue;
    if (best == nullptr || st->paid > best->paid ||
        (st->paid == best->paid &&
         (st->created < best->created ||
          (st->created == best->created && st->id < best->id)))) {
      best = st.get();
    }
  }
  if (best != nullptr) {
    ++stats_.auctions_held;
    if (auto* o = host_->loop().observer()) {
      o->on_auction_clear(static_cast<double>(best->paid));
    }
    admit(*best);
  }
}

void AuctionThinner::on_server_complete(const server::ServiceRequest& done) {
  const auto it = states_.find(done.request_id);
  if (it != states_.end()) {
    RequestState& st = *it->second;
    if (st.request_session != nullptr) {
      st.request_session->send(Message{.type = MessageType::kResponse,
                                       .request_id = st.id,
                                       .body = cfg_.response_body,
                                       .cls = st.cls});
    }
    // Sessions stay open until the client closes them; the reset handler
    // retires streams that no longer map to a state.
    destroy_state(done.request_id, /*abort_sessions=*/false);
  }
  run_auction();
}

void AuctionThinner::expire(std::uint64_t id) {
  const auto it = states_.find(id);
  if (it == states_.end()) return;
  RequestState& st = *it->second;
  SPEAKUP_ASSERT(!st.serving);
  ++stats_.channels_expired;
  stats_.payment_bytes_wasted += st.paid;
  if (auto* o = host_->loop().observer()) {
    o->on_channel_expired(static_cast<double>(st.paid));
  }
  destroy_state(id, /*abort_sessions=*/true);
}

void AuctionThinner::destroy_state(std::uint64_t id, bool abort_sessions) {
  const auto it = states_.find(id);
  if (it == states_.end()) return;
  RequestState& st = *it->second;
  if (st.request_session != nullptr) {
    by_stream_.erase(st.request_session);
    if (abort_sessions) pool_.retire(st.request_session);
  }
  if (st.payment_session != nullptr) {
    by_stream_.erase(st.payment_session);
    if (abort_sessions) pool_.retire(st.payment_session);
  }
  states_.erase(it);
}

}  // namespace speakup::core
