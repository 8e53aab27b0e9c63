// Tests for the network substrate: queues, links, switches, routing.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/event_loop.hpp"
#include "transport/host.hpp"
#include "util/alloc_guard.hpp"

namespace speakup::net {
namespace {

/// A terminal node that records everything it receives.
class SinkNode : public Node {
 public:
  SinkNode(Network& net, NodeId id, std::string name) : Node(net, id, std::move(name)) {}
  void on_packet(Packet p) override {
    arrival_times.push_back(network().loop().now());
    packets.push_back(p);
  }
  std::vector<SimTime> arrival_times;
  std::vector<Packet> packets;
};

Packet test_packet(NodeId src, NodeId dst, Bytes wire) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.wire_size = wire;
  return p;
}

TEST(DropTailQueue, FifoOrder) {
  PacketSlab pool;
  DropTailQueue q(10'000);
  for (int i = 0; i < 3; ++i) {
    Packet p = test_packet(0, 1, 100);
    p.seq = i;
    ASSERT_TRUE(q.push(pool, p));
  }
  for (int i = 0; i < 3; ++i) {
    const std::uint32_t r = q.pop(pool);
    ASSERT_NE(r, util::kNil);
    EXPECT_EQ(pool[r].pkt.seq, i);
    pool.erase(r);
  }
  EXPECT_EQ(q.pop(pool), util::kNil);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(DropTailQueue, DropsWhenFull) {
  PacketSlab pool;
  DropTailQueue q(250);
  EXPECT_TRUE(q.push(pool, test_packet(0, 1, 100)));
  EXPECT_TRUE(q.push(pool, test_packet(0, 1, 100)));
  EXPECT_FALSE(q.push(pool, test_packet(0, 1, 100)));  // 300 > 250
  EXPECT_EQ(q.drops(), 1);
  EXPECT_EQ(q.dropped_bytes(), 100);
  EXPECT_EQ(q.size_bytes(), 200);
  EXPECT_EQ(pool.in_use(), 2u);  // a dropped packet takes no record
}

TEST(DropTailQueue, PopFreesCapacity) {
  PacketSlab pool;
  DropTailQueue q(200);
  EXPECT_TRUE(q.push(pool, test_packet(0, 1, 150)));
  EXPECT_FALSE(q.push(pool, test_packet(0, 1, 100)));
  const std::uint32_t r = q.pop(pool);
  ASSERT_NE(r, util::kNil);
  pool.erase(r);
  EXPECT_TRUE(q.push(pool, test_packet(0, 1, 100)));
}

TEST(DropTailQueue, CountsEnqueued) {
  PacketSlab pool;
  DropTailQueue q(1000);
  q.push(pool, test_packet(0, 1, 100));
  q.push(pool, test_packet(0, 1, 100));
  EXPECT_EQ(q.enqueued(), 2);
  EXPECT_EQ(q.size_packets(), 2u);
}

TEST(DropTailQueue, QueuesSharingOnePoolKeepTheirOwnOrder) {
  // Two queues interleave pushes and pops through one pool: records freed
  // by one are reused by the other, yet each list stays FIFO.
  PacketSlab pool;
  DropTailQueue a(10'000);
  DropTailQueue b(10'000);
  std::int64_t next_a = 0;
  std::int64_t next_b = 1000;
  std::int64_t want_a = 0;
  std::int64_t want_b = 1000;
  for (int round = 0; round < 50; ++round) {
    for (int k = 0; k < 1 + round % 3; ++k) {
      Packet p = test_packet(0, 1, 100);
      p.seq = next_a++;
      ASSERT_TRUE(a.push(pool, p));
      p.seq = next_b++;
      ASSERT_TRUE(b.push(pool, p));
    }
    for (DropTailQueue* q : {&a, &b}) {
      const std::uint32_t r = q->pop(pool);
      ASSERT_NE(r, util::kNil);
      EXPECT_EQ(pool[r].pkt.seq, q == &a ? want_a++ : want_b++);
      pool.erase(r);
    }
  }
  EXPECT_EQ(pool.in_use(), a.size_packets() + b.size_packets());
  EXPECT_LE(pool.size(), pool.in_use() + 2);  // freed records were reused
}

TEST(Link, DeliversAfterSerializationPlusPropagation) {
  sim::EventLoop loop;
  Network net(loop);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  // 1500 B at 2 Mbit/s = 6 ms serialization; +10 ms propagation = 16 ms.
  net.connect(a, b, LinkSpec{Bandwidth::mbps(2.0), Duration::millis(10), 96'000});
  net.build_routes();
  net.forward(a.id(), test_packet(a.id(), b.id(), 1500));
  loop.run();
  ASSERT_EQ(b.packets.size(), 1u);
  EXPECT_EQ(b.arrival_times[0].ns(), Duration::millis(16).ns());
}

TEST(Link, BackToBackPacketsSerializeSequentially) {
  sim::EventLoop loop;
  Network net(loop);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  net.connect(a, b, LinkSpec{Bandwidth::mbps(2.0), Duration::zero(), 96'000});
  net.build_routes();
  for (int i = 0; i < 3; ++i) net.forward(a.id(), test_packet(a.id(), b.id(), 1500));
  loop.run();
  ASSERT_EQ(b.packets.size(), 3u);
  // 6 ms per packet: arrivals at 6, 12, 18 ms.
  EXPECT_EQ(b.arrival_times[0].ns(), Duration::millis(6).ns());
  EXPECT_EQ(b.arrival_times[1].ns(), Duration::millis(12).ns());
  EXPECT_EQ(b.arrival_times[2].ns(), Duration::millis(18).ns());
}

TEST(Link, PropagationDoesNotBlockNextTransmission) {
  sim::EventLoop loop;
  Network net(loop);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  // Large propagation delay; serialization 6 ms.
  net.connect(a, b, LinkSpec{Bandwidth::mbps(2.0), Duration::millis(100), 96'000});
  net.build_routes();
  net.forward(a.id(), test_packet(a.id(), b.id(), 1500));
  net.forward(a.id(), test_packet(a.id(), b.id(), 1500));
  loop.run();
  ASSERT_EQ(b.packets.size(), 2u);
  EXPECT_EQ(b.arrival_times[0].ns(), Duration::millis(106).ns());
  EXPECT_EQ(b.arrival_times[1].ns(), Duration::millis(112).ns());  // pipelined
}

TEST(Link, OverflowDropsAreCounted) {
  sim::EventLoop loop;
  Network net(loop);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  // Queue fits exactly one additional 1500-byte packet.
  Link& link = net.connect(a, b, LinkSpec{Bandwidth::mbps(2.0), Duration::zero(), 1500});
  net.build_routes();
  for (int i = 0; i < 4; ++i) net.forward(a.id(), test_packet(a.id(), b.id(), 1500));
  loop.run();
  EXPECT_EQ(b.packets.size(), 2u);  // 1 in flight + 1 queued
  EXPECT_EQ(link.queue_from(a.id()).drops(), 2);
}

TEST(Link, DirectionsAreIndependent) {
  sim::EventLoop loop;
  Network net(loop);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  net.connect(a, b, LinkSpec{Bandwidth::mbps(2.0), Duration::zero(), 96'000});
  net.build_routes();
  net.forward(a.id(), test_packet(a.id(), b.id(), 1500));
  net.forward(b.id(), test_packet(b.id(), a.id(), 1500));
  loop.run();
  ASSERT_EQ(a.packets.size(), 1u);
  ASSERT_EQ(b.packets.size(), 1u);
  // Both serialize concurrently (full duplex): both arrive at 6 ms.
  EXPECT_EQ(a.arrival_times[0].ns(), b.arrival_times[0].ns());
}

TEST(Link, AsymmetricSpecs) {
  sim::EventLoop loop;
  Network net(loop);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  net.connect(a, b, LinkSpec{Bandwidth::mbps(2.0), Duration::zero(), 96'000},
              LinkSpec{Bandwidth::mbps(1.0), Duration::zero(), 96'000});
  net.build_routes();
  net.forward(a.id(), test_packet(a.id(), b.id(), 1500));  // a->b at 2 Mbit/s
  net.forward(b.id(), test_packet(b.id(), a.id(), 1500));  // b->a at 1 Mbit/s
  loop.run();
  EXPECT_EQ(b.arrival_times[0].ns(), Duration::millis(6).ns());
  EXPECT_EQ(a.arrival_times[0].ns(), Duration::millis(12).ns());
}

TEST(Network, RoutesThroughSwitches) {
  sim::EventLoop loop;
  Network net(loop);
  auto& a = net.add_node<SinkNode>("a");
  Switch& s1 = net.add_switch("s1");
  Switch& s2 = net.add_switch("s2");
  auto& b = net.add_node<SinkNode>("b");
  const LinkSpec fast{Bandwidth::gbps(1.0), Duration::millis(1), 1'000'000};
  net.connect(a, s1, fast);
  net.connect(s1, s2, fast);
  net.connect(s2, b, fast);
  net.build_routes();
  net.forward(a.id(), test_packet(a.id(), b.id(), 1000));
  loop.run();
  ASSERT_EQ(b.packets.size(), 1u);
  // Three hops, each 1 ms propagation + 8 us serialization.
  EXPECT_EQ(b.arrival_times[0].ns(), 3 * (Duration::millis(1).ns() + 8000));
}

TEST(Network, ShortestPathChosen) {
  sim::EventLoop loop;
  Network net(loop);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  Switch& s1 = net.add_switch("s1");
  Switch& s2 = net.add_switch("s2");
  const LinkSpec fast{Bandwidth::gbps(1.0), Duration::millis(1), 1'000'000};
  // Short path a-s1-b; long path a-s2-s1-b irrelevant.
  net.connect(a, s1, fast);
  net.connect(s1, b, fast);
  net.connect(a, s2, fast);
  net.connect(s2, s1, fast);
  net.build_routes();
  net.forward(a.id(), test_packet(a.id(), b.id(), 1000));
  loop.run();
  ASSERT_EQ(b.packets.size(), 1u);
  EXPECT_EQ(b.arrival_times[0].ns(), 2 * (Duration::millis(1).ns() + 8000));
}

TEST(Network, UnroutableIsDroppedAndCounted) {
  sim::EventLoop loop;
  Network net(loop);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");  // never connected
  net.build_routes();
  net.forward(a.id(), test_packet(a.id(), b.id(), 1000));
  loop.run();
  EXPECT_TRUE(b.packets.empty());
  EXPECT_EQ(net.unroutable_drops(), 1);
}

TEST(Network, LinkBetweenLookup) {
  sim::EventLoop loop;
  Network net(loop);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  auto& c = net.add_node<SinkNode>("c");
  Link& ab = net.connect(a, b, LinkSpec{Bandwidth::mbps(1.0), Duration::zero(), 1000});
  EXPECT_EQ(net.link_between(a.id(), b.id()), &ab);
  EXPECT_EQ(net.link_between(b.id(), a.id()), &ab);
  EXPECT_EQ(net.link_between(a.id(), c.id()), nullptr);
}

TEST(Network, NodeAccessors) {
  sim::EventLoop loop;
  Network net(loop);
  auto& a = net.add_node<SinkNode>("alpha");
  EXPECT_EQ(net.node_count(), 1u);
  EXPECT_EQ(&net.node(a.id()), &a);
  EXPECT_EQ(a.name(), "alpha");
}

TEST(Network, DeliveredBytesCounter) {
  sim::EventLoop loop;
  Network net(loop);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  Link& l = net.connect(a, b, LinkSpec{Bandwidth::mbps(2.0), Duration::zero(), 96'000});
  net.build_routes();
  net.forward(a.id(), test_packet(a.id(), b.id(), 1500));
  net.forward(a.id(), test_packet(a.id(), b.id(), 500));
  loop.run();
  EXPECT_EQ(l.bytes_delivered_from(a.id()), 2000);
  EXPECT_EQ(l.bytes_delivered_from(b.id()), 0);
}

TEST(Network, LinksAndDirectionsShareOnePoolInOrder) {
  // Two links, both directions of each, interleave bursts through the one
  // network-wide packet pool. Each direction still delivers FIFO, drops at
  // its own tail, and counts only its own bytes.
  sim::EventLoop loop;
  Network net(loop);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  auto& c = net.add_node<SinkNode>("c");
  auto& d = net.add_node<SinkNode>("d");
  // Room for three 1000-byte packets behind the one serializing.
  const LinkSpec spec{Bandwidth::mbps(2.0), Duration::millis(3), 3'000};
  Link& ab = net.connect(a, b, spec);
  Link& cd = net.connect(c, d, spec);
  net.build_routes();
  const std::vector<std::pair<SinkNode*, SinkNode*>> flows = {
      {&a, &b}, {&b, &a}, {&c, &d}, {&d, &c}};
  std::vector<Bytes> sent_bytes(flows.size(), 0);
  for (int i = 0; i < 8; ++i) {
    for (std::size_t f = 0; f < flows.size(); ++f) {
      // Sizes differ per flow and per packet, so a byte counter fed by the
      // wrong direction cannot match.
      Packet p = test_packet(flows[f].first->id(), flows[f].second->id(),
                             1000 - 20 * static_cast<Bytes>(f) - i);
      p.seq = i;
      sent_bytes[f] += p.wire_size;
      net.forward(p.src, p);
    }
  }
  loop.run();
  const std::vector<const Link*> link_of = {&ab, &ab, &cd, &cd};
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const SinkNode& dst = *flows[f].second;
    const DropTailQueue& q = link_of[f]->queue_from(flows[f].first->id());
    // One serializing plus three queued; the rest fell off the tail.
    ASSERT_EQ(dst.packets.size(), 4u) << "flow " << f;
    Bytes got = 0;
    for (std::size_t k = 0; k < dst.packets.size(); ++k) {
      EXPECT_EQ(dst.packets[k].seq, static_cast<std::int64_t>(k)) << "flow " << f;
      EXPECT_EQ(dst.packets[k].src, flows[f].first->id());
      got += dst.packets[k].wire_size;
    }
    EXPECT_EQ(q.drops(), 4) << "flow " << f;
    EXPECT_EQ(got + q.dropped_bytes(), sent_bytes[f]) << "flow " << f;
    EXPECT_EQ(link_of[f]->bytes_delivered_from(flows[f].first->id()), got) << "flow " << f;
  }
  EXPECT_EQ(net.packets().in_use(), 0u);
  // Never more than four per direction were held at once.
  EXPECT_LE(net.packets().size(), 16u);
}

// The topology of LeafBecomesCoreAfterRoutesAreBuilt: s - x, s - y, x - d,
// then (in `late`) d - y, which turns the leaf d into a core node. Returns
// the links in connect() order.
struct Diamond {
  explicit Diamond(sim::EventLoop& loop) : net(loop) {
    s = &net.add_switch("s");
    x = &net.add_switch("x");
    y = &net.add_switch("y");
    d = &net.add_node<SinkNode>("d");
    const LinkSpec spec{Bandwidth::mbps(8.0), Duration::millis(1), 100'000};
    links.push_back(&net.connect(*s, *x, spec));
    links.push_back(&net.connect(*s, *y, spec));
    links.push_back(&net.connect(*x, *d, spec));
  }
  void late() {
    links.push_back(&net.connect(*d, *y, LinkSpec{Bandwidth::mbps(8.0), Duration::millis(1),
                                                  100'000}));
  }
  /// Sends one packet from -> to and returns, per link and direction, the
  /// bytes it crossed: the packet's path.
  std::vector<Bytes> path(const Node& from, const Node& to) {
    std::vector<Bytes> before = bytes();
    net.forward(from.id(), test_packet(from.id(), to.id(), 1000));
    net.loop().run();
    std::vector<Bytes> after = bytes();
    for (std::size_t i = 0; i < after.size(); ++i) after[i] -= before[i];
    return after;
  }
  std::vector<Bytes> bytes() const {
    std::vector<Bytes> out;
    for (const Link* l : links) {
      out.push_back(l->bytes_delivered_from(l->endpoint_a()));
      out.push_back(l->bytes_delivered_from(l->endpoint_b()));
    }
    return out;
  }
  Network net;
  Switch* s = nullptr;
  Switch* x = nullptr;
  Switch* y = nullptr;
  SinkNode* d = nullptr;
  std::vector<Link*> links;
};

// A node whose degree goes 1 -> 2 after build_routes() moves its inline
// edge into an overflow list. Its edges must keep connect() order (the BFS
// tie-breaks routes follow), both lookups must find both links, and the
// rebuilt routes must equal a fresh build of the same topology.
TEST(Network, LeafBecomesCoreAfterRoutesAreBuilt) {
  sim::EventLoop loop;
  Diamond grown(loop);
  grown.net.build_routes();
  // d is a leaf: s reaches it through x.
  EXPECT_EQ(grown.path(*grown.s, *grown.d),
            (std::vector<Bytes>{1000, 0, 0, 0, 1000, 0}));
  grown.late();
  Link* dx = grown.links[2];
  Link* dy = grown.links[3];
  EXPECT_EQ(grown.net.link_between(grown.d->id(), grown.x->id()), dx);
  EXPECT_EQ(grown.net.link_between(grown.x->id(), grown.d->id()), dx);
  EXPECT_EQ(grown.net.link_between(grown.d->id(), grown.y->id()), dy);
  EXPECT_EQ(grown.net.link_between(grown.y->id(), grown.d->id()), dy);
  EXPECT_EQ(grown.net.link_between(grown.d->id(), grown.s->id()), nullptr);

  // Neighbour order: the BFS from d meets x before y (x was connected
  // first), so s keeps reaching d through x. An overflow list that put
  // the new edge first would send it through y.
  EXPECT_EQ(grown.path(*grown.s, *grown.d),
            (std::vector<Bytes>{1000, 0, 0, 0, 1000, 0, 0, 0}));

  sim::EventLoop fresh_loop;
  Diamond fresh(fresh_loop);
  fresh.late();
  const std::vector<std::pair<Node*, Node*>> pairs = {
      {grown.s, grown.d}, {grown.d, grown.s}, {grown.x, grown.y}, {grown.y, grown.x},
      {grown.d, grown.x}, {grown.y, grown.d}, {grown.s, grown.x}, {grown.x, grown.d}};
  const std::vector<std::pair<Node*, Node*>> fresh_pairs = {
      {fresh.s, fresh.d}, {fresh.d, fresh.s}, {fresh.x, fresh.y}, {fresh.y, fresh.x},
      {fresh.d, fresh.x}, {fresh.y, fresh.d}, {fresh.s, fresh.x}, {fresh.x, fresh.d}};
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(grown.path(*pairs[i].first, *pairs[i].second),
              fresh.path(*fresh_pairs[i].first, *fresh_pairs[i].second))
        << pairs[i].first->name() << " -> " << pairs[i].second->name();
  }
  EXPECT_EQ(grown.d->packets.size(), fresh.d->packets.size() + 2);  // the two s -> d above

  // Still one link per pair, whichever end asks.
  EXPECT_DEATH(grown.late(), "link_between");
  EXPECT_DEATH(grown.net.connect(*grown.y, *grown.d,
                                 LinkSpec{Bandwidth::mbps(1.0), Duration::zero(), 1000}),
               "link_between");
}

// Building the access tree of a 10^4-client topology: every byte that
// add_node<Host> and connect() allocate for a leaf, averaged per leaf.
TEST(Network, LeafBuildBytesStayWithinBudget) {
  constexpr int kLeaves = 10'000;
  ASSERT_TRUE(util::AllocGuard::counting()) << "speakup_counted_new not linked";
  // Bytes and allocations per leaf over kLeaves add_node<Host> + connect,
  // with or without Network::reserve for every node first.
  const auto build = [](bool reserve) {
    sim::EventLoop loop;
    Network net(loop);
    Switch& sw = net.add_switch("sw");
    std::vector<std::string> names;
    names.reserve(kLeaves);
    for (int i = 0; i < kLeaves; ++i) names.push_back("c" + std::to_string(i));
    const LinkSpec access{Bandwidth::mbps(2.0), Duration::micros(500), 48'000};
    const util::AllocGuard guard;
    if (reserve) net.reserve(kLeaves + 1);
    for (int i = 0; i < kLeaves; ++i) {
      net.connect(net.add_node<transport::Host>(std::move(names[i])), sw, access);
    }
    return std::pair{static_cast<double>(guard.bytes_delta()) / kLeaves,
                     static_cast<double>(guard.delta()) / kLeaves};
  };
  const auto [per_leaf, allocs_per_leaf] = build(false);
  // Measured 471 B and 1.01 allocations per leaf: the Host object (its
  // sizeof is pinned in transport_test), the leaf's 192-B share of a
  // link-slab chunk, and the doubling growth of the per-node arrays
  // (node pointers, routes, inline adjacency) and of the switch's edge
  // list. The byte bound is that plus ~10%: an adjacency vector per node
  // (its 16 B plus a 24-B header for the 12-B inline entry) breaks it.
  // The count bound leaves room only for the Host: a heap object per
  // link or per node adds one allocation per leaf.
  EXPECT_LT(per_leaf, 520.0) << "bytes allocated per leaf";
  EXPECT_LT(allocs_per_leaf, 1.05) << "allocations per leaf";
  // Reserved, the per-node arrays are allocated once at their final size:
  // measured 371 B per leaf, of which 44 B are the node pointer, inline
  // adjacency and route entries, and the rest the Host, the link-store
  // share and the switch's doubling edge list (395 B in SPEAKUP_AUDIT
  // builds, whose Host and Link carry audit fields). The bound is that plus
  // ~2%; a reserve() that leaves any per-node array to double breaks it.
  const auto [reserved_per_leaf, reserved_allocs_per_leaf] = build(true);
  EXPECT_LT(reserved_per_leaf, SPEAKUP_AUDIT_ENABLED ? 404.0 : 380.0)
      << "bytes allocated per leaf, reserved";
  EXPECT_LT(reserved_allocs_per_leaf, 1.05) << "allocations per leaf, reserved";
}

TEST(Network, DeliverWorksBeforeRoutesAreBuilt) {
  sim::EventLoop loop;
  Network net(loop);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  net.deliver(b.id(), test_packet(a.id(), b.id(), 100));
  ASSERT_EQ(b.packets.size(), 1u);
  EXPECT_TRUE(a.packets.empty());
}

}  // namespace
}  // namespace speakup::net
