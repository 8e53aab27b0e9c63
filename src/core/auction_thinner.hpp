// The speak-up thinner with an explicit payment channel and virtual auction
// (§3.3 of the paper — the variant the authors implemented and evaluated).
//
// The request and payment channels work as payment_thinner.hpp describes.
// When the server finishes a request, the thinner holds a virtual auction:
// among contenders whose request has actually arrived, the one that has
// paid the most bytes wins, its payment channel is terminated (kWin) and
// the request is admitted. Contenders whose request is present keep paying
// until they win or their client walks away.
#pragma once

#include <string_view>

#include "core/payment_thinner.hpp"

namespace speakup::core {

class AuctionThinner : public PaymentThinner<server::EmulatedServer> {
 public:
  AuctionThinner(transport::Host& host, const FrontEndConfig& cfg, util::RngStream server_rng)
      : PaymentThinner(host, cfg, std::move(server_rng), /*bids_while_serving=*/false) {}

  [[nodiscard]] std::string_view name() const override { return "auction"; }

 private:
  /// Admits `r`, recording its bytes as the price it paid.
  void grant(Request& r) override;
  void on_request_abandoned(Request& r) override;
  void on_server_complete(const server::ServiceRequest& done) override;
};

}  // namespace speakup::core
