// The thinner skeleton every built-in defense runs on.
//
// Each defense in the paper's comparison sits at one thinner: it accepts
// request channels (and, for the auctions, payment channels), hands
// admitted requests to the protected server, and answers each request the
// server finishes. Only the choice of what the server works on next
// differs. Thinner holds the rest: the request listener and session pool,
// the stream-to-request index, the per-class served tally, the response on
// completion, and the server-attention accounting. A defense derives from
// it and supplies its admission policy through the three hooks.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/front_end.hpp"
#include "core/thinner_stats.hpp"
#include "http/message.hpp"
#include "http/message_stream.hpp"
#include "http/session_pool.hpp"
#include "obs/observer.hpp"
#include "server/emulated_server.hpp"
#include "transport/host.hpp"
#include "util/rng.hpp"

namespace speakup::core {

/// `Server` is server::EmulatedServer or, for the §5 quantum auction,
/// server::InterruptibleServer.
template <class Server>
class Thinner : public FrontEnd {
 public:
  [[nodiscard]] const ThinnerStats& stats() const override { return stats_; }
  [[nodiscard]] Duration server_busy_good() const override {
    return server_.good_busy_time();
  }
  [[nodiscard]] Duration server_busy_bad() const override { return server_.bad_busy_time(); }
  [[nodiscard]] Duration server_busy_total() const override { return server_.busy_time(); }

  [[nodiscard]] const Server& server() const { return server_; }

 protected:
  /// Starts the server and listens for request channels on cfg.request_port.
  Thinner(transport::Host& host, const FrontEndConfig& cfg, util::RngStream server_rng);

  /// A message arrived on a request channel.
  virtual void on_request(http::MessageStream& s, const http::Message& m) = 0;
  /// Stream `s`, bound to request `id` in by_stream_, reset. It is already
  /// unbound and retired.
  virtual void on_stream_lost(std::uint64_t id, http::MessageStream& s) = 0;
  /// The server finished a request.
  virtual void on_server_complete(const server::ServiceRequest& done) = 0;

  /// Reset handler for every adopted stream: unbinds and retires `s`, then
  /// tells the defense if `s` was bound to a request.
  void on_reset(http::MessageStream& s);

  [[nodiscard]] obs::Observer* observer() const { return host_->loop().observer(); }
  /// Counts one served request of class `cls`.
  void count_served(http::ClientClass cls);
  /// Reports an admission at `price` to the observer, if one is attached.
  void observe_admission(http::ClientClass cls, double price, bool direct);
  /// Adds `v` to `good` or `bad` by class; neutral requests record nothing.
  static void sample(http::ClientClass cls, stats::SampleSet& good, stats::SampleSet& bad,
                     double v);
  /// Answers a finished request on its request channel `s` and unbinds the
  /// channel. Does nothing if the client already left (`s` is null).
  void respond(http::MessageStream* s, std::uint64_t id, http::ClientClass cls);

  transport::Host* host_;
  FrontEndConfig cfg_;
  Server server_;
  http::SessionPool pool_;
  ThinnerStats stats_;
  /// The request each bound stream carries (request or payment channel).
  std::unordered_map<http::MessageStream*, std::uint64_t> by_stream_;
};

}  // namespace speakup::core
