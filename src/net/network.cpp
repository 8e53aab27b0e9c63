#include "net/network.hpp"

#include <deque>

namespace speakup::net {

Switch& Network::add_switch(std::string name) { return add_node<Switch>(std::move(name)); }

Link& Network::connect(const Node& a, const Node& b, const LinkSpec& ab, const LinkSpec& ba) {
  SPEAKUP_ASSERT(a.id() != b.id());
  SPEAKUP_ASSERT(link_between(a.id(), b.id()) == nullptr);  // single link per pair
  const std::uint32_t idx = links_.emplace(*this, a.id(), b.id(), ab, ba);
  add_edge(a.id(), Edge{b.id(), idx});
  add_edge(b.id(), Edge{a.id(), idx});
  routes_valid_ = false;
  return links_[idx];
}

void Network::add_edge(NodeId v, Edge e) {
  Adjacency& adj = adjacency_[static_cast<std::size_t>(v)];
  if (adj.first.nbr == kInvalidNode) {
    adj.first = e;
    return;
  }
  if (adj.more == kNoOverflow) {  // degree 1 -> 2: the node becomes core
    adj.more = static_cast<std::uint32_t>(overflow_.size());
    overflow_.push_back({adj.first});
  }
  overflow_[adj.more].push_back(e);
}

std::span<const Network::Edge> Network::edges(NodeId v) const {
  const Adjacency& adj = adjacency_[static_cast<std::size_t>(v)];
  if (adj.more != kNoOverflow) return overflow_[adj.more];
  if (adj.first.nbr == kInvalidNode) return {};
  return {&adj.first, 1};
}

// Leaf-compressed shortest-path build. A degree-1 node (a client host, the
// thinner, any stub) can never relay traffic, so its routing decision is
// fixed: everything leaves over its single link. Only "core" nodes (degree
// >= 2) need next-hop tables, and a BFS restricted to the core picks the
// same parents the old full-graph BFS did — leaves discovered mid-BFS add
// no new frontier, so the relative order of core nodes in the frontier is
// unchanged, and with it every tie-break. With 10^5 access leaves and a
// handful of switches this is O(N + C^2) instead of the old O(N^2) matrix.
void Network::build_routes() {
  const std::size_t n = nodes_.size();
  core_index_.assign(n, -1);
  core_nodes_.clear();
  for (std::size_t v = 0; v < n; ++v) {
    NodeRoute& r = route_[v];
    r.component = -1;
    r.gateway = kInvalidNode;
    r.uplink = nullptr;
    const std::span<const Edge> out = edges(static_cast<NodeId>(v));
    if (out.size() == 1) {
      r.gateway = out[0].nbr;
      r.uplink = &links_[out[0].link];
    } else if (out.size() >= 2) {
      core_index_[v] = static_cast<std::int32_t>(core_nodes_.size());
      core_nodes_.push_back(static_cast<NodeId>(v));
    }
  }

  // Connected components over the full graph: the reachability check that
  // the dense matrix used to encode as kInvalidNode entries.
  std::int32_t comp = 0;
  std::deque<NodeId> frontier;
  for (std::size_t start = 0; start < n; ++start) {
    if (route_[start].component != -1) continue;
    route_[start].component = comp;
    frontier.push_back(static_cast<NodeId>(start));
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop_front();
      for (const Edge& e : edges(u)) {
        if (route_[static_cast<std::size_t>(e.nbr)].component == -1) {
          route_[static_cast<std::size_t>(e.nbr)].component = comp;
          frontier.push_back(e.nbr);
        }
      }
    }
    ++comp;
  }

  // BFS from every core destination over the core-induced subgraph:
  // core_next_link_[v][dst] = the link from v to its parent on the path to
  // dst, so forwarding never scans an adjacency list.
  const std::size_t c = core_nodes_.size();
  core_next_link_.assign(c * c, nullptr);
  std::vector<bool> seen(c);
  for (std::size_t dst_ci = 0; dst_ci < c; ++dst_ci) {
    seen.assign(c, false);
    seen[dst_ci] = true;
    frontier.push_back(core_nodes_[dst_ci]);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop_front();
      for (const Edge& e : edges(u)) {
        const std::int32_t v_ci = core_index_[static_cast<std::size_t>(e.nbr)];
        if (v_ci < 0 || seen[static_cast<std::size_t>(v_ci)]) continue;
        seen[static_cast<std::size_t>(v_ci)] = true;
        core_next_link_[static_cast<std::size_t>(v_ci) * c + dst_ci] = &links_[e.link];
        frontier.push_back(e.nbr);
      }
    }
  }
  routes_valid_ = true;
}

void Network::forward(NodeId from, Packet p) {
  if (!routes_valid_) build_routes();
  SPEAKUP_ASSERT(p.dst >= 0 && static_cast<std::size_t>(p.dst) < route_.size());
  const NodeRoute& src = route_[static_cast<std::size_t>(from)];
  const NodeRoute& dst = route_[static_cast<std::size_t>(p.dst)];
  if (from == p.dst || src.component != dst.component) {
    ++unroutable_drops_;
    return;
  }
  // A leaf has exactly one way out (the component check above already
  // guaranteed the destination is reachable through it).
  if (src.uplink != nullptr) {
    src.uplink->send(from, p);
    return;
  }
  // From core: route toward the destination itself, or — when the
  // destination is a leaf — toward its gateway, with a direct final hop.
  NodeId target = p.dst;
  if (dst.uplink != nullptr) {
    if (dst.gateway == from) {
      dst.uplink->send(from, p);
      return;
    }
    target = dst.gateway;
  }
  const std::int32_t from_ci = core_index_[static_cast<std::size_t>(from)];
  const std::int32_t target_ci = core_index_[static_cast<std::size_t>(target)];
  SPEAKUP_ASSERT(from_ci >= 0 && target_ci >= 0);
  Link* next = core_next_link_[static_cast<std::size_t>(from_ci) * core_nodes_.size() +
                               static_cast<std::size_t>(target_ci)];
  SPEAKUP_ASSERT(next != nullptr);
  next->send(from, p);
}

Link* Network::link_between(NodeId a, NodeId b) const {
  if (a < 0 || static_cast<std::size_t>(a) >= adjacency_.size()) return nullptr;
  for (const Edge& e : edges(a)) {
    if (e.nbr == b) return &links_[e.link];
  }
  return nullptr;
}

#if SPEAKUP_AUDIT_ENABLED
void Network::audit() const {
  std::vector<std::uint8_t> live = packets_.audit();
  std::size_t held = 0;
  for (std::uint32_t i = 0; i < links_.size(); ++i) held += links_[i].audit(packets_, live);
  SPEAKUP_AUDIT_CHECK(held == packets_.in_use(),
                      "Network: every live record must be queued or in flight exactly once");
}

void Network::corrupt_pool_for_test() {
  for (std::uint32_t i = 0; i < links_.size(); ++i) {
    const Link& link = links_[i];
    for (const NodeId from : {link.endpoint_a(), link.endpoint_b()}) {
      const std::uint32_t head = link.queue_from(from).list().head;
      if (head != util::kNil) {
        packets_.erase(head);
        return;
      }
    }
  }
}
#endif

}  // namespace speakup::net
