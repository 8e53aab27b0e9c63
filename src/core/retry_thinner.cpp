#include "core/retry_thinner.hpp"

namespace speakup::core {

using http::Message;
using http::MessageStream;
using http::MessageType;

void RetryThinner::on_request(MessageStream& s, const Message& m) {
  if (m.type != MessageType::kRequest) return;
  auto it = states_.find(m.request_id);
  if (it == states_.end()) {
    ++stats_.requests_received;
    by_stream_[&s] = m.request_id;
    it = states_.emplace(m.request_id, RequestState{m.cls, m.difficulty, &s}).first;
  }
  RequestState& st = it->second;
  if (st.serving) return;  // stray retry for an admitted request
  ++st.retries;
  if (server_.busy()) {
    if (auto* o = observer()) o->on_rejection();
    // The synchronous please-retry signal. Clients do not actually wait
    // for it (they pipeline), but it keeps the window full.
    s.send(Message{.type = MessageType::kRetry, .request_id = m.request_id});
    return;
  }
  st.serving = true;
  const auto price = static_cast<double>(st.retries);
  observe_admission(st.cls, price, /*direct=*/st.retries <= 1);
  count_served(st.cls);
  sample(st.cls, stats_.retries_good, stats_.retries_bad, price);
  server_.submit(server::ServiceRequest{m.request_id, st.cls, st.difficulty});
}

void RetryThinner::on_server_complete(const server::ServiceRequest& done) {
  const auto it = states_.find(done.request_id);
  if (it != states_.end()) {
    respond(it->second.session, done.request_id, it->second.cls);
    states_.erase(it);
  }
  // No auction: the next retry to arrive at the now-free server is admitted,
  // which realizes the random-drop proportional allocation of §3.2.
}

void RetryThinner::on_stream_lost(std::uint64_t id, MessageStream& /*s*/) {
  const auto it = states_.find(id);
  if (it == states_.end()) return;
  it->second.session = nullptr;
  if (!it->second.serving) states_.erase(it);
}

}  // namespace speakup::core
