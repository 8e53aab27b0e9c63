#include "core/elastic_front_end.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace speakup::core {

using http::Message;
using http::MessageStream;
using http::MessageType;

namespace {
// Runs before the base class starts listening, so a rejected config leaves
// no listener behind.
const FrontEndConfig& checked(const FrontEndConfig& cfg, bool unscaled) {
  if (!unscaled) {
    util::require(cfg.elastic_max_scale >= 1.0, "elastic max_scale must be >= 1");
    util::require(cfg.elastic_interval > Duration::zero(), "elastic interval must be positive");
    util::require(cfg.elastic_threshold > 0.0 && cfg.elastic_threshold <= 1.0,
                  "elastic threshold must be in (0, 1]");
  }
  return cfg;
}
}  // namespace

ElasticFrontEnd::ElasticFrontEnd(transport::Host& host, const FrontEndConfig& cfg,
                                 util::RngStream server_rng, bool unscaled)
    : Thinner(host, checked(cfg, unscaled), std::move(server_rng)), unscaled_(unscaled) {}

void ElasticFrontEnd::on_run_start() {
  // A max scale of 1.0 means the monitor can never act; arming it anyway
  // would add events and break the "row-identical to none" contract.
  if (unscaled_ || cfg_.elastic_max_scale <= 1.0) return;
  host_->loop().schedule(cfg_.elastic_interval, [this] { on_monitor_tick(); });
}

void ElasticFrontEnd::on_monitor_tick() {
  const double busy_fraction =
      (server_.busy_time() - busy_at_tick_).sec() / cfg_.elastic_interval.sec();
  busy_at_tick_ = server_.busy_time();
  if (busy_fraction >= cfg_.elastic_threshold && scale_ < cfg_.elastic_max_scale) {
    scale_ = std::min(scale_ * 2.0, cfg_.elastic_max_scale);
    server_.set_capacity_rps(cfg_.capacity_rps * scale_);
    stats_.counters.inc("elastic_scale_ups");
    if (auto* o = observer()) o->on_elastic_scale(scale_);
  }
  host_->loop().schedule(cfg_.elastic_interval, [this] { on_monitor_tick(); });
}

void ElasticFrontEnd::on_request(MessageStream& s, const Message& m) {
  if (m.type != MessageType::kRequest) return;
  ++stats_.requests_received;
  if (server_.busy()) {
    ++stats_.busy_rejections;
    if (auto* o = observer()) o->on_rejection();
    s.send(Message{.type = MessageType::kBusy, .request_id = m.request_id});
    return;
  }
  observe_admission(m.cls, 0.0, /*direct=*/true);
  count_served(m.cls);
  serving_[m.request_id] = Pending{m.cls, &s};
  by_stream_[&s] = m.request_id;
  server_.submit(server::ServiceRequest{m.request_id, m.cls, m.difficulty});
}

void ElasticFrontEnd::on_server_complete(const server::ServiceRequest& done) {
  const auto it = serving_.find(done.request_id);
  if (it == serving_.end()) return;
  respond(it->second.session, done.request_id, it->second.cls);
  serving_.erase(it);
}

void ElasticFrontEnd::on_stream_lost(std::uint64_t id, MessageStream& /*s*/) {
  const auto it = serving_.find(id);
  if (it != serving_.end()) it->second.session = nullptr;
}

}  // namespace speakup::core
