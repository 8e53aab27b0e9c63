// Full-duplex point-to-point link.
//
// Each direction has its own serialization rate, propagation delay and
// drop-tail queue, modeled store-and-forward: a packet is dequeued, occupies
// the transmitter for wire_size/rate, then arrives after the propagation
// delay (propagation does not block the next transmission).
//
// Hot-path note: a packet rides one record of the network-wide PacketSlab
// from the moment the link accepts it — queued, serializing, propagating —
// until it is delivered; the event callbacks capture only {this, direction,
// record index}, so pushing a packet through a link performs zero heap
// allocations at steady state (see docs/performance.md). A link owns no
// packet storage of its own.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/event_loop.hpp"
#include "util/units.hpp"

namespace speakup::net {

class Network;

struct LinkSpec {
  Bandwidth rate;
  Duration delay;                      // one-way propagation
  Bytes queue_capacity = 96'000;       // ~64 full-size packets
};

class Link {
 public:
  Link(Network& net, NodeId a, NodeId b, const LinkSpec& ab, const LinkSpec& ba);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Sends `p` from endpoint `from` toward the other endpoint.
  void send(NodeId from, const Packet& p);

  [[nodiscard]] NodeId endpoint_a() const { return a_; }
  [[nodiscard]] NodeId endpoint_b() const { return b_; }
  [[nodiscard]] NodeId other(NodeId n) const { return n == a_ ? b_ : a_; }

  /// Statistics for the direction whose *source* is `from`.
  [[nodiscard]] const DropTailQueue& queue_from(NodeId from) const {
    return dir_for(from).queue;
  }
  [[nodiscard]] Bytes bytes_delivered_from(NodeId from) const {
    return dir_for(from).delivered_bytes;
  }

#if SPEAKUP_AUDIT_ENABLED
  /// Structural audit (SPEAKUP_AUDIT builds only), driven by
  /// Network::audit() with the pool's live map: walks both directions'
  /// queue lists, each record of which must be live and met once (it is
  /// marked 2 in `live`), and checks each list's bytes against its queue's
  /// occupancy. Returns the records this link holds: queued, serializing
  /// or propagating.
  std::size_t audit(const PacketSlab& pool, std::vector<std::uint8_t>& live) const;
#endif

 private:
  struct Direction {
    Direction(const LinkSpec& spec, NodeId to)
        : rate(spec.rate), delay(spec.delay), queue(spec.queue_capacity), dst(to) {}
    Bandwidth rate;
    Duration delay;
    DropTailQueue queue;
    NodeId dst;
    bool transmitting = false;
    Bytes delivered_bytes = 0;
    SPEAKUP_AUDIT_ONLY(std::size_t in_flight = 0;)  // records serializing or propagating
  };

  void transmit(Direction& d, std::uint32_t slot);
  void on_serialized(Direction& d, std::uint32_t slot);
  void on_propagated(Direction& d, std::uint32_t slot);
  Direction& dir_for(NodeId from) { return from == a_ ? ab_ : ba_; }
  [[nodiscard]] const Direction& dir_for(NodeId from) const { return from == a_ ? ab_ : ba_; }

  Network* net_;
  NodeId a_;
  NodeId b_;
  Direction ab_;
  Direction ba_;
};

}  // namespace speakup::net
