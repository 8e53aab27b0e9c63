#include "core/quantum_thinner.hpp"

#include "obs/observer.hpp"

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

QuantumAuctionThinner::QuantumAuctionThinner(transport::Host& host, const Config& cfg,
                                             util::RngStream server_rng)
    : host_(&host),
      cfg_(cfg),
      quantum_(cfg.quantum > Duration::zero() ? cfg.quantum
                                              : Duration::seconds(1.0 / cfg.capacity_rps)),
      server_(host.loop(), cfg.capacity_rps, std::move(server_rng)),
      pool_(host.loop()),
      quantum_timer_(host.loop()) {
  server_.set_on_complete([this](const server::ServiceRequest& r) { on_server_complete(r); });
  host.listen(cfg_.request_port,
              [this](transport::TcpConnection& c) { on_request_accept(c); });
  host.listen(cfg_.payment_port,
              [this](transport::TcpConnection& c) { on_payment_accept(c); });
  quantum_timer_.restart(quantum_, [this] { quantum_tick(); });
}

void QuantumAuctionThinner::on_request_accept(transport::TcpConnection& conn) {
  MessageStream& s = pool_.adopt(conn);
  MessageStream::Callbacks cbs;
  cbs.on_message = [this, &s](const Message& m) { on_request_message(s, m); };
  cbs.on_reset = [this, &s] { on_stream_reset(s); };
  s.set_callbacks(std::move(cbs));
}

void QuantumAuctionThinner::on_payment_accept(transport::TcpConnection& conn) {
  MessageStream& s = pool_.adopt(conn);
  MessageStream::Callbacks cbs;
  cbs.on_message = [this, &s](const Message& m) { on_payment_message(s, m); };
  cbs.on_body_progress = [this, &s](const Message& m, Bytes n) {
    on_payment_progress(s, m, n);
  };
  cbs.on_reset = [this, &s] { on_stream_reset(s); };
  s.set_callbacks(std::move(cbs));
}

void QuantumAuctionThinner::on_request_message(MessageStream& s, const Message& m) {
  if (m.type != MessageType::kRequest) return;
  ++stats_.requests_received;
  RequestState& st = get_or_create(m.request_id, m.cls);
  if (st.has_request) return;
  st.cls = m.cls;
  st.difficulty = m.difficulty;
  st.has_request = true;
  st.request_session = &s;
  by_stream_[&s] = st.id;
  st.expiry->cancel();  // request present: only §5 step 4 can evict it now
  if (!server_.busy()) {
    give_server_to(st);
  } else {
    s.send(Message{.type = MessageType::kPleasePay, .request_id = st.id});
  }
}

void QuantumAuctionThinner::on_payment_message(MessageStream& s, const Message& m) {
  switch (m.type) {
    case MessageType::kPayOpen: {
      RequestState& st = get_or_create(m.request_id, m.cls);
      st.payment_session = &s;
      by_stream_[&s] = st.id;
      if (!st.started_paying) {
        st.started_paying = true;
        st.first_payment = host_->loop().now();
      }
      break;
    }
    case MessageType::kPostData:
      s.send(Message{.type = MessageType::kPostContinue, .request_id = m.request_id});
      break;
    default:
      break;
  }
}

void QuantumAuctionThinner::on_payment_progress(MessageStream& s, const Message& m,
                                                Bytes newly) {
  if (m.type != MessageType::kPostData) return;
  stats_.payment_bytes_total += newly;
  stats_.payment_rate.add(host_->loop().now(), static_cast<double>(newly));
  if (RequestState* st = state_for(s)) st->paid += newly;
}

void QuantumAuctionThinner::on_stream_reset(MessageStream& s) {
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
      pool_.retire(&s);
      // Request abandoned by the client: abort it wherever it is.
      abort_request(id);
      return;
    }
    if (st.payment_session == &s) st.payment_session = nullptr;
  }
  pool_.retire(&s);
}

QuantumAuctionThinner::RequestState& QuantumAuctionThinner::get_or_create(std::uint64_t id,
                                                                          ClientClass cls) {
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

QuantumAuctionThinner::RequestState* QuantumAuctionThinner::state_for(MessageStream& s) {
  const auto it = by_stream_.find(&s);
  if (it == by_stream_.end()) return nullptr;
  const auto sit = states_.find(it->second);
  return sit == states_.end() ? nullptr : sit->second.get();
}

QuantumAuctionThinner::RequestState* QuantumAuctionThinner::active_state() {
  for (auto& [id, st] : states_) {
    if (st->active) return st.get();
  }
  return nullptr;
}

QuantumAuctionThinner::RequestState* QuantumAuctionThinner::top_contender() {
  RequestState* best = nullptr;
  for (auto& [id, st] : states_) {
    if (!st->has_request || st->active) continue;
    if (best == nullptr || st->paid > best->paid ||
        (st->paid == best->paid && st->created < best->created)) {
      best = st.get();
    }
  }
  return best;
}

void QuantumAuctionThinner::give_server_to(RequestState& st) {
  SPEAKUP_ASSERT(!server_.busy());
  SPEAKUP_ASSERT(st.has_request && !st.active);
  st.expiry->cancel();
  if (auto* o = host_->loop().observer()) {
    // A fresh grant is the admission (price = the bid being zeroed); a
    // resume after suspension is not a new admission.
    if (!st.suspended) {
      o->on_admission(obs_cls(st.cls), static_cast<double>(st.paid),
                      /*direct=*/!st.started_paying);
    }
    o->on_auction_clear(static_cast<double>(st.paid));
  }
  st.paid = 0;  // §5 step 2: "set u's payment to zero"
  st.active = true;
  if (st.suspended) {
    st.suspended = false;
    server_.resume(st.id);
  } else {
    st.started = true;
    server_.submit(server::ServiceRequest{st.id, st.cls, st.difficulty});
  }
}

void QuantumAuctionThinner::quantum_tick() {
  quantum_timer_.restart(quantum_, [this] { quantum_tick(); });
  ++stats_.auctions_held;
  RequestState* v = active_state();
  RequestState* u = top_contender();
  if (v == nullptr) {
    if (u != nullptr && !server_.busy()) give_server_to(*u);
  } else if (u != nullptr && u->paid > v->paid) {
    // §5 step 2: SUSPEND v, admit/RESUME u.
    server_.suspend();
    v->active = false;
    v->suspended = true;
    v->suspended_at = host_->loop().now();
    stats_.counters.inc("suspensions");
    if (auto* o = host_->loop().observer()) o->on_quantum_suspension();
    give_server_to(*u);
  } else {
    // §5 step 3: v continues but has not yet paid for the next quantum.
    v->paid = 0;
  }
  // §5 step 4: ABORT requests suspended too long.
  std::vector<std::uint64_t> to_abort;
  for (auto& [id, st] : states_) {
    if (st->suspended &&
        host_->loop().now() - st->suspended_at > cfg_.suspension_limit) {
      to_abort.push_back(id);
    }
  }
  for (const std::uint64_t id : to_abort) abort_request(id);
}

void QuantumAuctionThinner::on_server_complete(const server::ServiceRequest& done) {
  const auto it = states_.find(done.request_id);
  if (it != states_.end()) {
    RequestState& st = *it->second;
    st.active = false;
    if (st.payment_session != nullptr) {
      // Terminate the on-going payment: the client stops paying now.
      st.payment_session->send(Message{.type = MessageType::kWin, .request_id = st.id});
    }
    if (st.request_session != nullptr) {
      st.request_session->send(Message{.type = MessageType::kResponse,
                                       .request_id = st.id,
                                       .body = cfg_.response_body,
                                       .cls = st.cls});
    }
    const double pay_time =
        st.started_paying ? (host_->loop().now() - st.first_payment).sec() : 0.0;
    if (st.cls == ClientClass::kGood) {
      ++stats_.served_good;
      stats_.payment_time_good.add(pay_time);
    } else if (st.cls == ClientClass::kBad) {
      ++stats_.served_bad;
      stats_.payment_time_bad.add(pay_time);
    } else {
      ++stats_.served_other;
    }
    destroy_state(done.request_id, /*abort_sessions=*/false);
  }
  // Hand the free server to the best contender right away (the next
  // quantum tick would do it too; this avoids idling a full quantum).
  if (RequestState* u = top_contender()) give_server_to(*u);
}

void QuantumAuctionThinner::abort_request(std::uint64_t id) {
  const auto it = states_.find(id);
  if (it == states_.end()) return;
  RequestState& st = *it->second;
  if (st.active) {
    // Abandoned while holding the server: suspend then discard.
    server_.suspend();
    st.active = false;
    st.suspended = true;
  }
  if (st.suspended) server_.abort_suspended(id);
  stats_.counters.inc("aborts");
  if (auto* o = host_->loop().observer()) o->on_abort();
  // If the client is still there, kAborted tells it to stop paying and it
  // closes both channels itself; aborting here would kill the unsent
  // notification. If the client already abandoned the request, force-close.
  const bool client_gone = st.request_session == nullptr;
  if (!client_gone) {
    st.request_session->send(Message{.type = MessageType::kAborted, .request_id = id});
  }
  destroy_state(id, /*abort_sessions=*/client_gone);
  if (!server_.busy()) {
    if (RequestState* u = top_contender()) give_server_to(*u);
  }
}

void QuantumAuctionThinner::expire(std::uint64_t id) {
  const auto it = states_.find(id);
  if (it == states_.end()) return;
  RequestState& st = *it->second;
  if (st.active || st.suspended) return;  // admitted at least once; step 4 governs
  ++stats_.channels_expired;
  stats_.payment_bytes_wasted += st.paid;
  if (auto* o = host_->loop().observer()) {
    o->on_channel_expired(static_cast<double>(st.paid));
  }
  destroy_state(id, /*abort_sessions=*/true);
}

void QuantumAuctionThinner::destroy_state(std::uint64_t id, bool abort_sessions) {
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
