#include "core/thinner.hpp"

#include "server/interruptible_server.hpp"

namespace speakup::core {

using http::ClientClass;
using http::Message;
using http::MessageStream;
using http::MessageType;

template <class Server>
Thinner<Server>::Thinner(transport::Host& host, const FrontEndConfig& cfg,
                         util::RngStream server_rng)
    : host_(&host),
      cfg_(cfg),
      server_(host.loop(), cfg.capacity_rps, std::move(server_rng)),
      pool_(host.loop()) {
  server_.set_on_complete([this](const server::ServiceRequest& r) { on_server_complete(r); });
  host.listen(cfg_.request_port, [this](transport::TcpConnection& conn) {
    MessageStream& s = pool_.adopt(conn);
    MessageStream::Callbacks cbs;
    cbs.on_message = [this, &s](const Message& m) { on_request(s, m); };
    cbs.on_reset = [this, &s] { on_reset(s); };
    s.set_callbacks(std::move(cbs));
  });
}

template <class Server>
void Thinner<Server>::on_reset(MessageStream& s) {
  const auto it = by_stream_.find(&s);
  if (it == by_stream_.end()) {
    pool_.retire(&s);
    return;
  }
  const std::uint64_t id = it->second;
  by_stream_.erase(it);
  pool_.retire(&s);
  on_stream_lost(id, s);
}

template <class Server>
void Thinner<Server>::count_served(ClientClass cls) {
  if (cls == ClientClass::kGood) {
    ++stats_.served_good;
  } else if (cls == ClientClass::kBad) {
    ++stats_.served_bad;
  } else {
    ++stats_.served_other;
  }
}

template <class Server>
void Thinner<Server>::observe_admission(ClientClass cls, double price, bool direct) {
  // obs::Cls mirrors http::ClientClass value for value.
  if (auto* o = observer()) o->on_admission(static_cast<obs::Cls>(cls), price, direct);
}

template <class Server>
void Thinner<Server>::sample(ClientClass cls, stats::SampleSet& good, stats::SampleSet& bad,
                             double v) {
  if (cls == ClientClass::kGood) {
    good.add(v);
  } else if (cls == ClientClass::kBad) {
    bad.add(v);
  }
}

template <class Server>
void Thinner<Server>::respond(MessageStream* s, std::uint64_t id, ClientClass cls) {
  if (s == nullptr) return;
  s->send(Message{.type = MessageType::kResponse,
                  .request_id = id,
                  .body = cfg_.response_body,
                  .cls = cls});
  by_stream_.erase(s);
}

template class Thinner<server::EmulatedServer>;
template class Thinner<server::InterruptibleServer>;

}  // namespace speakup::core
