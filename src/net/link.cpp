// speakup-lint: hot-path (allocation-free steady state; growth sites must
// be amortized and allowlisted in tools/lint_allowlist.txt)
#include "net/link.hpp"

#include "net/network.hpp"
#include "obs/observer.hpp"

namespace speakup::net {

Link::Link(Network& net, NodeId a, NodeId b, const LinkSpec& ab, const LinkSpec& ba)
    : net_(&net), a_(a), b_(b), ab_(ab, b), ba_(ba, a) {
  SPEAKUP_ASSERT(a != b);
  SPEAKUP_ASSERT(ab.rate.bits_per_sec() > 0 && ba.rate.bits_per_sec() > 0);
}

void Link::send(NodeId from, const Packet& p) {
  SPEAKUP_ASSERT(from == a_ || from == b_);
  SPEAKUP_AUDIT_ONLY(net_->maybe_audit();)
  Direction& d = dir_for(from);
  if (d.transmitting) {
    const bool accepted = d.queue.push(net_->packets(), p);  // drop-tail on overflow
    if (auto* o = net_->loop().observer()) {
      if (accepted) {
        o->on_link_enqueue(p.wire_size);
      } else {
        o->on_link_drop(p.wire_size);
      }
    }
    return;
  }
  // Transmitter idle: serialize immediately without passing through the queue.
  d.transmitting = true;
  transmit(d, net_->packets().emplace(PacketRecord{p}));
}

void Link::transmit(Direction& d, std::uint32_t slot) {
  SPEAKUP_AUDIT_ONLY(++d.in_flight;)
  const Duration tx = d.rate.transmission_time(net_->packets()[slot].pkt.wire_size);
  net_->loop().schedule(tx, [this, &d, slot] { on_serialized(d, slot); });
}

void Link::on_serialized(Direction& d, std::uint32_t slot) {
  // Serialization finished: the packet propagates (non-blocking)...
  PacketSlab& pool = net_->packets();
  d.delivered_bytes += pool[slot].pkt.wire_size;
  net_->loop().schedule(d.delay, [this, &d, slot] { on_propagated(d, slot); });
  // ...and the transmitter picks up the next queued packet's record.
  const std::uint32_t next = d.queue.pop(pool);
  if (next != util::kNil) {
    if (auto* o = net_->loop().observer()) o->on_link_dequeue(pool[next].pkt.wire_size);
    transmit(d, next);
  } else {
    d.transmitting = false;
  }
}

void Link::on_propagated(Direction& d, std::uint32_t slot) {
  PacketSlab& pool = net_->packets();
  const Packet p = pool[slot].pkt;
  SPEAKUP_AUDIT_ONLY(--d.in_flight;)
  // Recycle before delivering: on_packet may synchronously send more
  // traffic through this very link.
  pool.erase(slot);
  net_->deliver(d.dst, p);
}

#if SPEAKUP_AUDIT_ENABLED
std::size_t Link::audit(const PacketSlab& pool, std::vector<std::uint8_t>& live) const {
  std::size_t held = 0;
  for (const Direction* d : {&ab_, &ba_}) {
    Bytes bytes = 0;
    d->queue.list().audit(pool, [&](std::uint32_t r) {
      SPEAKUP_AUDIT_CHECK(live[r] == 1, "Link: queue list holds a freed or twice-listed record");
      live[r] = 2;
      bytes += pool[r].pkt.wire_size;
    });
    SPEAKUP_AUDIT_CHECK(bytes == d->queue.size_bytes(),
                        "Link: queue list bytes must equal the queue's occupancy");
    SPEAKUP_AUDIT_CHECK(d->transmitting || d->queue.empty(),
                        "Link: an idle transmitter must have an empty queue");
    held += d->queue.size_packets() + d->in_flight;
  }
  return held;
}
#endif

}  // namespace speakup::net
