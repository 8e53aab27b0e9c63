// The request/payment-channel book the flat auction (§3.3) and the quantum
// auction (§5) share.
//
// A client sends its request (kRequest) on a request channel. If the server
// is free the request is granted at once; otherwise the thinner replies
// kPleasePay and the client opens a payment channel (kPayOpen, then a
// stream of kPostData POSTs, as the paper's JavaScript does). The book
// credits every delivered body byte to the request id and answers each
// consumed POST with kPostContinue. A request whose payment arrives but
// whose kRequest does not is evicted after the payment window (§7.3) and
// its bytes are wasted.
//
// The thinner never identifies clients: all accounting is by request id and
// delivered bytes (spoofing/NAT make identity useless — §2.2, §3.2). Each
// auction supplies only its admission policy: what a grant does, what
// happens when a client abandons its request, and whether a request that
// holds the server still bids.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/thinner.hpp"
#include "sim/timer.hpp"

namespace speakup::core {

template <class Server>
class PaymentThinner : public Thinner<Server> {
 public:
  /// Requests currently tracked (paying, waiting, or holding the server).
  [[nodiscard]] std::size_t contending() const override { return requests_.size(); }

 protected:
  struct Request {
    Request(sim::EventLoop& loop, std::uint64_t id, http::ClientClass cls, SimTime created)
        : id(id), cls(cls), created(created), expiry(loop) {}

    std::uint64_t id;
    http::ClientClass cls;
    int difficulty = 1;
    bool has_request = false;  // kRequest arrived (payment may precede it)
    bool serving = false;      // holds the server
    bool suspended = false;    // §5: SUSPENDed inside the server
    bool started_paying = false;
    Bytes paid = 0;  // the current bid
    SimTime created;
    SimTime first_payment;
    SimTime suspended_at;
    http::MessageStream* session = nullptr;  // request channel
    http::MessageStream* payment = nullptr;  // payment channel
    sim::Timer expiry;                       // payment window, until kRequest arrives
  };

  /// Also listens for payment channels on cfg.payment_port. With
  /// `bids_while_serving` a request that holds the server keeps bidding
  /// (the quantum auction sells every quantum); without it, payment for an
  /// admitted request is ignored.
  PaymentThinner(transport::Host& host, const FrontEndConfig& cfg, util::RngStream server_rng,
                 bool bids_while_serving);

  /// Gives the idle server to `r`, whose kRequest has arrived.
  virtual void grant(Request& r) = 0;
  /// The client reset the request channel of `r`; it is already retired.
  virtual void on_request_abandoned(Request& r) = 0;

  void on_request(http::MessageStream& s, const http::Message& m) override;
  void on_stream_lost(std::uint64_t id, http::MessageStream& s) override;

  [[nodiscard]] Request* find(std::uint64_t id);
  /// The §3.3 selection rule over requests that have arrived and do not
  /// hold the server: most paid, then earliest created, then lowest id.
  [[nodiscard]] Request* top_bidder();
  /// Removes a request; with `abort_sessions` also retires its channels.
  void destroy(std::uint64_t id, bool abort_sessions);

  std::unordered_map<std::uint64_t, Request> requests_;

 private:
  void on_payment(http::MessageStream& s, const http::Message& m);
  void on_payment_progress(http::MessageStream& s, const http::Message& m, Bytes newly);
  Request& get_or_create(std::uint64_t id, http::ClientClass cls);
  void expire(std::uint64_t id);

  bool bids_while_serving_;
};

}  // namespace speakup::core
