// Heterogeneous-request thinner (§5): time is sliced into quanta of length
// tau and every quantum is auctioned.
//
// The thinner runs the paper's four-step procedure every tau seconds:
//   1. Let v be the currently-active request; let u be the contending
//      request that has paid the most.
//   2. If u has paid more than v: SUSPEND v, admit (or RESUME) u, and set
//      u's payment to zero.
//   3. If v has paid more than u: let v continue but set v's payment to
//      zero (v has not yet paid for the next quantum).
//   4. Time out and ABORT any request suspended longer than the limit
//      (30 s in the paper).
//
// Payment channels are NOT terminated on admission; clients keep paying
// until their response arrives, so a request of x chunks must win x
// auctions. The thinner never learns a request's difficulty — attackers
// sending deliberately hard requests pay for exactly the server time they
// consume, which is the point of the generalization.
#pragma once

#include <string_view>

#include "core/payment_thinner.hpp"
#include "server/interruptible_server.hpp"
#include "sim/timer.hpp"

namespace speakup::core {

class QuantumAuctionThinner : public PaymentThinner<server::InterruptibleServer> {
 public:
  /// The quantum is cfg.quantum, or 1/c when that is zero.
  QuantumAuctionThinner(transport::Host& host, const FrontEndConfig& cfg,
                        util::RngStream server_rng);

  [[nodiscard]] std::string_view name() const override { return "quantum"; }

 private:
  /// Admits or RESUMEs `r`, zeroing its bid (§5 step 2).
  void grant(Request& r) override;
  void on_request_abandoned(Request& r) override { abort_request(r.id); }
  void on_server_complete(const server::ServiceRequest& done) override;
  void quantum_tick();
  void abort_request(std::uint64_t id);
  Request* active();

  Duration quantum_;
  sim::Timer quantum_timer_;
};

}  // namespace speakup::core
