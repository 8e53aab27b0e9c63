// The topology container: owns nodes and links, computes shortest-path
// routes, and moves packets hop by hop. It also owns the PacketSlab that
// holds every packet its links carry, and one object a higher layer keeps
// per network (transport's connection slab), held type-erased because net/
// does not know transport types.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/event_loop.hpp"
#include "util/assert.hpp"
#include "util/audit.hpp"
#include "util/slab.hpp"

namespace speakup::net {

class Switch;

class Network {
 public:
  explicit Network(sim::EventLoop& loop) : loop_(&loop) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Sizes the per-node arrays for `nodes` nodes, so the add_node calls
  /// that follow never regrow them (a regrowth holds the old and new
  /// arrays at once).
  void reserve(std::size_t nodes) {
    nodes_.reserve(nodes);
    adjacency_.reserve(nodes);
    route_.reserve(nodes);
  }

  /// Adds a node of any Node-derived type. The Network owns it.
  /// Usage: auto& h = net.add_node<transport::Host>("client3");
  template <typename T, typename... Args>
  T& add_node(std::string name, Args&&... args) {
    const NodeId id = static_cast<NodeId>(nodes_.size());
    auto node = std::make_unique<T>(*this, id, std::move(name), std::forward<Args>(args)...);
    T& ref = *node;
    nodes_.push_back(std::move(node));
    adjacency_.push_back(Adjacency{});
    route_.push_back(NodeRoute{});
    route_.back().node = &ref;
    routes_valid_ = false;
    return ref;
  }

  Switch& add_switch(std::string name);

  /// Connects two nodes with a symmetric full-duplex link.
  Link& connect(const Node& a, const Node& b, const LinkSpec& spec) {
    return connect(a, b, spec, spec);
  }

  /// Connects two nodes with per-direction specs (a->b uses `ab`).
  Link& connect(const Node& a, const Node& b, const LinkSpec& ab, const LinkSpec& ba);

  /// Recomputes shortest-path next-hop tables. Called lazily by forward();
  /// callable explicitly after topology construction.
  void build_routes();

  /// Moves `p` one hop from `from` toward `p.dst`.
  void forward(NodeId from, Packet p);

  /// Delivers `p` to node `to` (called by links on arrival). Works before
  /// build_routes().
  void deliver(NodeId to, const Packet& p) {
    SPEAKUP_ASSERT(to >= 0 && static_cast<std::size_t>(to) < route_.size());
    route_[static_cast<std::size_t>(to)].node->on_packet(p);
  }

  [[nodiscard]] sim::EventLoop& loop() const { return *loop_; }
  /// The records of every packet the links hold (queued or in flight).
  [[nodiscard]] PacketSlab& packets() { return packets_; }
  [[nodiscard]] Node& node(NodeId id) const {
    SPEAKUP_ASSERT(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
    return *nodes_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] Link* link_between(NodeId a, NodeId b) const;

  /// The one object of type T a higher layer keeps for this network, made
  /// on first use. It is destroyed after every node, so a node's destructor
  /// may still reach it. One type per network: asking for a second type
  /// asserts.
  template <typename T>
  [[nodiscard]] T& attachment() {
    if (!attachment_) [[unlikely]] {
      attachment_ = Attachment(std::make_unique<T>().release(), &destroy_attachment<T>);
    }
    SPEAKUP_ASSERT(attachment_.get_deleter() == &destroy_attachment<T>);
    return *static_cast<T*>(attachment_.get());
  }

  /// Packets dropped because no route / unroutable destination.
  [[nodiscard]] std::int64_t unroutable_drops() const { return unroutable_drops_; }

#if SPEAKUP_AUDIT_ENABLED
  /// Structural audit (SPEAKUP_AUDIT builds only): the packet slab's own
  /// audit, then every live record is exactly one of queued (on one
  /// direction's list) or in flight (held by one transmitter), and each
  /// direction's list agrees with its queue's packet and byte counters.
  /// Runs at amortized checkpoints from Link::send.
  void audit() const;
  void maybe_audit() {
    if (--audit_countdown_ == 0) {
      audit();
      // O(links + records) per audit, so space audits that far apart.
      audit_countdown_ = kAuditPeriod + links_.size() + packets_.size();
    }
  }
  /// Deliberate corruption for tests/audit_test.cpp: erases the head
  /// record of the first non-empty queue without unlinking it — the
  /// signature of a premature release.
  void corrupt_pool_for_test();
#endif

 private:
  /// One adjacency entry: the neighbour and the index of the link to it.
  struct Edge {
    NodeId nbr = kInvalidNode;
    std::uint32_t link = 0;
  };
  static constexpr std::uint32_t kNoOverflow = UINT32_MAX;
  /// A node's edges in connect() order. A leaf's one edge sits inline; a
  /// node of degree >= 2 keeps all of its edges in overflow_[more].
  struct Adjacency {
    Edge first;  // nbr == kInvalidNode while the node has no edge
    std::uint32_t more = kNoOverflow;
  };

  [[nodiscard]] std::span<const Edge> edges(NodeId v) const;
  void add_edge(NodeId v, Edge e);

  /// Everything forward() and deliver() need to know about one endpoint.
  struct NodeRoute {
    std::int32_t component = -1;    // connected-component id
    NodeId gateway = kInvalidNode;  // leaf -> its single neighbor, else kInvalidNode
    Link* uplink = nullptr;         // leaf -> its single link, else nullptr
    Node* node = nullptr;           // set by add_node
  };

  template <typename T>
  static void destroy_attachment(void* p) {
    delete static_cast<T*>(p);
  }
  using Attachment = std::unique_ptr<void, void (*)(void*)>;

  sim::EventLoop* loop_;
  PacketSlab packets_;
  // Declared before nodes_ so that it outlives them.
  Attachment attachment_{nullptr, nullptr};
  std::vector<std::unique_ptr<Node>> nodes_;
  // Links by value in 256-link (48 KB) chunks, in connect() order; never
  // erased.
  util::Slab<Link, 256> links_;
  std::vector<Adjacency> adjacency_;       // per node
  std::vector<std::vector<Edge>> overflow_;  // per node of degree >= 2
  // Leaf-compressed routing state (see build_routes): degree-1 nodes route
  // through their single neighbor; shortest-path tables cover core nodes
  // only, so a 10^5-leaf access tree costs O(N + C^2) instead of O(N^2).
  std::vector<NodeRoute> route_;           // per node
  std::vector<std::int32_t> core_index_;   // node -> dense core index, or -1
  std::vector<NodeId> core_nodes_;         // dense core index -> node
  // core_next_link_[v_ci * C + dst_ci] = the link from v to its neighbor on
  // a shortest core path toward dst (same BFS tie-breaks as the old
  // full-matrix build).
  std::vector<Link*> core_next_link_;
  bool routes_valid_ = false;
  std::int64_t unroutable_drops_ = 0;
#if SPEAKUP_AUDIT_ENABLED
  static constexpr std::size_t kAuditPeriod = 256;
  std::size_t audit_countdown_ = kAuditPeriod;
#endif
};

/// A store-and-forward switch: relays packets along shortest paths.
class Switch : public Node {
 public:
  Switch(Network& net, NodeId id, std::string name) : Node(net, id, std::move(name)) {}

  void on_packet(Packet p) override {
    if (p.dst == id()) return;  // switches sink stray packets addressed to them
    network().forward(id(), std::move(p));
  }
};

}  // namespace speakup::net
