// Client control flow over the pool's dense arrays. Every schedule(),
// reserve_seq(), Timer::restart() and SessionPool::retire() call below sits
// at a fixed point in a member's request cycle: moving one reorders events
// and changes every result fingerprint.
#include "client/client_pool.hpp"

#include <algorithm>

#include "obs/observer.hpp"
#include "util/log.hpp"

namespace speakup::client {

using http::Message;
using http::MessageStream;
using http::MessageType;

ClientPool::ClientPool(sim::EventLoop& loop, net::NodeId thinner,
                       const WorkloadParams& params, std::uint32_t base_index)
    : loop_(&loop),
      thinner_(thinner),
      params_(params),
      base_index_(base_index),
      strategy_(StrategyFactory::instance().create(params_.strategy, strategy_params(params_))),
      session_pool_(loop) {
  util::require(params.lambda > 0, "client lambda must be positive");
  util::require(params.window >= 1, "client window must be >= 1");
  request_template_ = Message{.type = MessageType::kRequest,
                              .request_id = 0,
                              .cls = params_.cls,
                              .difficulty = params_.difficulty};
}

// The request slab destroys the live requests, whose timers cancel.
ClientPool::~ClientPool() {
  if (armed_ev_.pending()) loop_->cancel(armed_ev_);
}

void ClientPool::reserve(std::size_t n) {
  hosts_.reserve(n);
  rngs_.reserve(n);
  stats_.reserve(n);
  next_seq_.reserve(n);
  paused_.reserve(n);
  backlogs_.reserve(n);
  outstanding_.reserve(n);
  arr_when_.reserve(n);
  arr_seq_.reserve(n);
  heap_.reserve(n);
}

void ClientPool::add_member(transport::Host& host, util::RngStream rng) {
  hosts_.push_back(&host);
  rngs_.push_back(std::move(rng));
  stats_.emplace_back();
  next_seq_.push_back(0);
  paused_.push_back(0);
  // A member owns no heap object: its backlog and outstanding lists are
  // heads into the pool-wide slabs, so its first backlog push or request,
  // however late in a run, allocates only at a new pool-wide peak.
  backlogs_.emplace_back();
  outstanding_.emplace_back();
  arr_when_.emplace_back();
  arr_seq_.push_back(0);
}

StrategyView ClientPool::view(std::uint32_t m) const {
  StrategyView v;
  v.now = loop_->now();
  v.stats = &stats_[m];
  v.outstanding = outstanding_[m].count;
  v.backlog = backlogs_[m].count;
  return v;
}

int ClientPool::current_window(std::uint32_t m) {
  return std::max(1, strategy_->window(view(m)));
}

void ClientPool::start_all() {
  for (std::uint32_t m = 0; m < hosts_.size(); ++m) {
    draw_next_arrival(m);
    heap_.push_back(m);
    heap_sift_up(heap_.size() - 1);
  }
  arm_next();
  SPEAKUP_AUDIT_ONLY(audit();)
}

#if SPEAKUP_AUDIT_ENABLED
void ClientPool::audit() const {
  const std::size_t n = hosts_.size();
  SPEAKUP_AUDIT_CHECK(rngs_.size() == n && stats_.size() == n &&
                          next_seq_.size() == n && paused_.size() == n &&
                          backlogs_.size() == n && outstanding_.size() == n &&
                          arr_when_.size() == n && arr_seq_.size() == n,
                      "ClientPool: per-member parallel arrays must stay aligned");
  // Cohort heap: binary min-heap over (arr_when_, arr_seq_), members
  // appearing at most once.
  SPEAKUP_AUDIT_CHECK(heap_.size() <= n, "ClientPool: heap larger than the member count");
  std::vector<std::uint8_t> heaped(n, 0);
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const std::uint32_t m = heap_[i];
    SPEAKUP_AUDIT_CHECK(m < n, "ClientPool: heap member id out of range");
    SPEAKUP_AUDIT_CHECK(!heaped[m], "ClientPool: member heaped more than once");
    heaped[m] = 1;
    if (i > 0) {
      SPEAKUP_AUDIT_CHECK(!heap_less(m, heap_[(i - 1) / 2]),
                          "ClientPool: cohort min-heap property violated");
    }
  }
  // The armed cohort event exists iff an arrival is pending, and it is
  // filed under the heap minimum's reserved key.
  SPEAKUP_AUDIT_CHECK(armed_ev_.pending() == !heap_.empty(),
                      "ClientPool: armed event must track heap emptiness");
  // Outstanding lists hold exactly the live requests, each under its own
  // member; backlogs hold exactly the live backlog nodes.
  const std::vector<std::uint8_t> live = requests_.audit();
  std::size_t outstanding_total = 0;
  for (std::uint32_t m = 0; m < n; ++m) {
    std::uint32_t count = 0;
    for (std::uint32_t slot = outstanding_[m].head; slot != kNilSlot; ++count) {
      SPEAKUP_AUDIT_CHECK(count < requests_.in_use(),
                          "ClientPool: outstanding list longer than the live requests");
      SPEAKUP_AUDIT_CHECK(slot < requests_.size() && live[slot],
                          "ClientPool: outstanding entry must reference a live slot");
      const Request& r = requests_[slot];
      SPEAKUP_AUDIT_CHECK(r.member == m,
                          "ClientPool: outstanding slot must belong to its member");
      slot = r.next_outstanding;
    }
    SPEAKUP_AUDIT_CHECK(count == outstanding_[m].count,
                        "ClientPool: outstanding count must match its list");
    outstanding_total += count;
  }
  SPEAKUP_AUDIT_CHECK(outstanding_total == requests_.in_use(),
                      "ClientPool: every live request is outstanding for exactly one member");
  std::vector<std::uint8_t> backlogged = backlog_nodes_.audit();
  std::size_t backlog_total = 0;
  for (const Backlog& bl : backlogs_) {
    bl.audit(backlog_nodes_, [&](std::uint32_t i) {
      SPEAKUP_AUDIT_CHECK(backlogged[i] == 1,
                          "ClientPool: backlog holds a freed or twice-listed node");
      backlogged[i] = 2;
    });
    backlog_total += bl.count;
  }
  SPEAKUP_AUDIT_CHECK(backlog_total == backlog_nodes_.in_use(),
                      "ClientPool: every live backlog node is on exactly one backlog");
}

void ClientPool::corrupt_heap_for_test() {
  if (heap_.size() >= 2) std::swap(heap_.front(), heap_.back());
}
#endif

void ClientPool::draw_next_arrival(std::uint32_t m) {
  const Duration gap = strategy_->next_arrival(rngs_[m], view(m));
  arr_when_[m] = loop_->now() + gap;
  arr_seq_[m] = loop_->reserve_seq();
}

void ClientPool::arm_next() {
  if (armed_ev_.pending()) loop_->cancel(armed_ev_);
  if (heap_.empty()) return;
  const std::uint32_t m = heap_[0];
  armed_ev_ = loop_->schedule_keyed(arr_when_[m], arr_seq_[m], [this] { fire(); });
}

void ClientPool::fire() {
  const std::uint32_t m = heap_[0];
  if (paused_[m]) {
    heap_pop_min();  // the member's arrival chain stops here
  } else {
    on_arrival(m);  // re-keys m, which is still the heap's root
    heap_sift_down(0);
  }
  arm_next();
  SPEAKUP_AUDIT_ONLY(if (--audit_countdown_ == 0) {
    audit_countdown_ = kAuditPeriod;
    audit();
  })
}

void ClientPool::on_arrival(std::uint32_t m) {
  ++stats_[m].arrivals;
  purge_backlog(m);
  if (outstanding_[m].count < static_cast<std::uint32_t>(current_window(m))) {
    start_request(m);
  } else {
    backlogs_[m].push_back(backlog_nodes_, backlog_nodes_.emplace(BacklogNode{loop_->now()}));
  }
  draw_next_arrival(m);
}

void ClientPool::start_request(std::uint32_t m) {
  const std::uint64_t id = id_base(m) | next_seq_[m]++;
  const std::uint32_t slot = requests_.emplace();
  Request& r = requests_[slot];
  r.id = id;
  r.member = m;
  r.sent = loop_->now();
  r.timer.emplace(*loop_);
  r.timer->restart(params_.request_timeout, [this, id] { finish(id, Disposition::kDenied); });

  transport::TcpConnection& conn = hosts_[m]->connect(thinner_, params_.request_port);
  r.stream = &session_pool_.adopt(conn);
  MessageStream::Callbacks cbs;
  // [this, slot] captures stay inside std::function's inline buffer; they
  // are safe because a retired stream never fires callbacks again, so a
  // recycled slot is unreachable from the old stream.
  cbs.on_established = [this, slot] {
    Request& req = requests_[slot];
    if (req.stream == nullptr) return;
    Message msg = request_template_;
    msg.request_id = req.id;
    req.stream->send(msg);
    ++req.retries_sent;
  };
  cbs.on_message = [this, slot](const Message& msg) { on_message(requests_[slot], msg); };
  cbs.on_reset = [this, id](/*thinner evicted us or network failure*/) {
    finish(id, Disposition::kDenied);
  };
  cbs.on_acked = [this, slot](Bytes) {
    Request& req = requests_[slot];
    if (req.retry_pumping) pump_retries(req);
  };
  r.stream->set_callbacks(std::move(cbs));
  r.next_outstanding = outstanding_[m].head;
  outstanding_[m].head = slot;
  ++outstanding_[m].count;
  ++stats_[m].started;
}

void ClientPool::on_message(Request& r, const Message& m) {
  const std::uint32_t mem = r.member;
  switch (m.type) {
    case MessageType::kPleasePay: {
      if (r.payment.has_value()) break;  // already paying (or defected)
      if (!strategy_->pay(rngs_[mem], view(mem))) {
        ++stats_[mem].payments_declined;
        if (auto* o = loop_->observer()) o->on_payment_declined(global_index(mem));
        break;  // sit out the auction; the request rides on its timeout
      }
      r.paying = true;
      r.pay_started = loop_->now();
      if (auto* o = loop_->observer()) o->on_payment_started(global_index(mem));
      PaymentChannelClient::Config pc;
      pc.thinner = thinner_;
      pc.payment_port = params_.payment_port;
      pc.post_size = params_.post_size;
      r.payment.emplace(*hosts_[mem], session_pool_, pc, r.id, params_.cls);
      r.payment->start();
      if (const auto patience = strategy_->payment_patience(rngs_[mem], view(mem))) {
        const std::uint64_t id = r.id;
        r.defect_timer.emplace(*loop_);
        r.defect_timer->restart(*patience, [this, id] { abandon_payment(id); });
      }
      break;
    }
    case MessageType::kRetry:
      // §3.2: stream retries without waiting for individual signals.
      if (!r.retry_pumping) {
        r.retry_pumping = true;
        pump_retries(r);
      }
      break;
    case MessageType::kResponse: {
      ++stats_[mem].served;
      stats_[mem].response_time.add((loop_->now() - r.sent).sec());
      finish(r.id, Disposition::kServed);
      break;
    }
    case MessageType::kBusy:
      finish(r.id, Disposition::kBusyRejected);
      break;
    case MessageType::kAborted:
      finish(r.id, Disposition::kDenied);
      break;
    default:
      break;
  }
}

void ClientPool::abandon_payment(std::uint64_t id) {
  std::uint32_t slot = 0;
  Request* r = find_request(id, &slot);
  if (r == nullptr) return;
  if (!r->payment.has_value() || r->payment->stopped()) return;
  r->payment->stop();  // §7.4 defection: the bid freezes mid-window
  ++stats_[r->member].payments_abandoned;
  if (auto* o = loop_->observer()) o->on_payment_abandoned(global_index(r->member));
}

void ClientPool::pump_retries(Request& r) {
  if (r.stream == nullptr || r.stream->connection() == nullptr) return;
  const transport::TcpConnection& conn = *r.stream->connection();
  const Bytes per_msg = Message{.type = MessageType::kRequest}.wire_bytes();
  const auto acked_msgs = conn.bytes_acked() / per_msg;
  const int pipeline = strategy_->retry_pipeline(view(r.member));
  while (r.retries_sent - acked_msgs < pipeline) {
    Message msg = request_template_;
    msg.request_id = r.id;
    r.stream->send(msg);
    ++r.retries_sent;
    ++stats_[r.member].retries_sent;
  }
}

void ClientPool::finish(std::uint64_t id, Disposition d) {
  std::uint32_t slot = 0;
  Request* rp = find_request(id, &slot);
  if (rp == nullptr) return;
  Request& r = *rp;
  const std::uint32_t mem = r.member;
  int disposition = 0;
  switch (d) {
    case Disposition::kServed:
      break;  // counted by the caller
    case Disposition::kDenied:
      ++stats_[mem].denied;
      disposition = 1;
      break;
    case Disposition::kBusyRejected:
      ++stats_[mem].busy_rejected;
      disposition = 2;
      break;
  }
  if (auto* o = loop_->observer()) {
    o->on_request_finish(global_index(mem), r.sent, disposition, r.paying, r.pay_started);
  }
  if (r.payment.has_value()) {
    stats_[mem].payment_bytes_acked += r.payment->bytes_acked();
    r.payment->stop();
  }
  if (r.stream != nullptr) {
    MessageStream* s = r.stream;
    r.stream = nullptr;
    session_pool_.retire(s);
  }
  OutstandingList& out = outstanding_[mem];
  std::uint32_t* link = &out.head;
  while (*link != slot) link = &requests_[*link].next_outstanding;
  *link = r.next_outstanding;
  --out.count;
  requests_.erase(slot);  // timer dtors cancel; payment dtor is a no-op
  drain_backlog(mem);
}

void ClientPool::purge_backlog(std::uint32_t m) {
  const SimTime now = loop_->now();
  Backlog& bl = backlogs_[m];
  while (bl.count > 0 && now - backlog_nodes_[bl.head].when > params_.backlog_timeout) {
    backlog_nodes_.erase(bl.pop_front(backlog_nodes_));
    ++stats_[m].denied;  // §7.1: queued longer than 10 s -> service denial
  }
}

void ClientPool::drain_backlog(std::uint32_t m) {
  purge_backlog(m);
  while (backlogs_[m].count > 0 &&
         outstanding_[m].count < static_cast<std::uint32_t>(current_window(m))) {
    backlog_nodes_.erase(backlogs_[m].pop_front(backlog_nodes_));
    start_request(m);
  }
}

ClientPool::Request* ClientPool::find_request(std::uint64_t id, std::uint32_t* out_slot) {
  const auto global = static_cast<std::uint32_t>((id >> 32) - 1);
  if (global < base_index_ || global - base_index_ >= outstanding_.size()) return nullptr;
  for (std::uint32_t slot = outstanding_[global - base_index_].head; slot != kNilSlot;) {
    Request* r = &requests_[slot];
    if (r->id == id) {
      *out_slot = slot;
      return r;
    }
    slot = r->next_outstanding;
  }
  return nullptr;
}

void ClientPool::heap_pop_min() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) heap_sift_down(0);
}

void ClientPool::heap_sift_up(std::size_t i) {
  const std::uint32_t m = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_less(m, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = m;
}

void ClientPool::heap_sift_down(std::size_t i) {
  const std::uint32_t m = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_less(heap_[child + 1], heap_[child])) ++child;
    if (!heap_less(heap_[child], m)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = m;
}

}  // namespace speakup::client
