// The speak-up thinner with an explicit payment channel and virtual auction
// (§3.3 of the paper — the variant the authors implemented and evaluated).
//
// Protocol (client side is client/client_pool.hpp):
//   - A client sends its request (kRequest) on a "request channel".
//   - If the server is free and nobody is contending, the request is
//     admitted immediately (price zero).
//   - Otherwise the thinner replies kPleasePay, and the client opens a
//     payment channel (kPayOpen + a stream of 1-MByte kPostData POSTs, as
//     the paper's JavaScript does). The thinner credits every delivered
//     body byte to the request id.
//   - When the server finishes a request, the thinner holds a virtual
//     auction: among contenders whose request has actually arrived, the one
//     that has paid the most bytes wins, its channel is terminated (kWin)
//     and the request is admitted.
//   - A contender that has not won within the payment window (10 s, §7.3)
//     is evicted and its bytes are wasted.
//
// The thinner never identifies clients: all accounting is by request id and
// delivered bytes (spoofing/NAT make identity useless — §2.2, §3.2).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "core/front_end.hpp"
#include "core/thinner_stats.hpp"
#include "http/message.hpp"
#include "http/message_stream.hpp"
#include "http/session_pool.hpp"
#include "server/emulated_server.hpp"
#include "sim/timer.hpp"
#include "transport/host.hpp"
#include "util/rng.hpp"

namespace speakup::core {

class AuctionThinner : public FrontEnd {
 public:
  struct Config {
    double capacity_rps = 100.0;
    Bytes response_body = 1000;  // served-response size
    /// §7.3: a payment channel whose *request never arrives* is timed out
    /// after this long and its bytes are wasted. Contenders whose request is
    /// present keep paying until they win or their client walks away.
    Duration payment_window = Duration::seconds(10);
    std::uint32_t request_port = 80;
    std::uint32_t payment_port = 81;
  };

  AuctionThinner(transport::Host& host, const Config& cfg, util::RngStream server_rng);

  // --- FrontEnd ---
  [[nodiscard]] std::string_view name() const override { return "auction"; }
  [[nodiscard]] const ThinnerStats& stats() const override { return stats_; }
  /// Contenders currently being tracked (paying or waiting).
  [[nodiscard]] std::size_t contending() const override { return states_.size(); }
  [[nodiscard]] Duration server_busy_good() const override {
    return server_.good_busy_time();
  }
  [[nodiscard]] Duration server_busy_bad() const override {
    return server_.bad_busy_time();
  }
  [[nodiscard]] Duration server_busy_total() const override { return server_.busy_time(); }

  [[nodiscard]] const server::EmulatedServer& server() const { return server_; }

 private:
  struct RequestState {
    std::uint64_t id = 0;
    http::ClientClass cls = http::ClientClass::kNeutral;
    int difficulty = 1;
    bool has_request = false;  // kRequest arrived (payment may precede it)
    bool serving = false;
    bool started_paying = false;
    Bytes paid = 0;
    SimTime created;
    SimTime first_payment;
    http::MessageStream* request_session = nullptr;
    http::MessageStream* payment_session = nullptr;
    std::unique_ptr<sim::Timer> expiry;
  };

  void on_request_accept(transport::TcpConnection& conn);
  void on_payment_accept(transport::TcpConnection& conn);
  void on_request_message(http::MessageStream& s, const http::Message& m);
  void on_payment_message(http::MessageStream& s, const http::Message& m);
  void on_payment_progress(http::MessageStream& s, const http::Message& m, Bytes newly);
  void on_stream_reset(http::MessageStream& s);
  void on_server_complete(const server::ServiceRequest& done);

  RequestState& get_or_create(std::uint64_t id, http::ClientClass cls);
  RequestState* state_for(http::MessageStream& s);
  void admit(RequestState& st);
  void run_auction();
  void expire(std::uint64_t id);
  /// Removes the state; optionally aborts any sessions still bound to it.
  void destroy_state(std::uint64_t id, bool abort_sessions);

  transport::Host* host_;
  Config cfg_;
  server::EmulatedServer server_;
  http::SessionPool pool_;
  ThinnerStats stats_;
  std::unordered_map<std::uint64_t, std::unique_ptr<RequestState>> states_;
  std::unordered_map<http::MessageStream*, std::uint64_t> by_stream_;
};

}  // namespace speakup::core
