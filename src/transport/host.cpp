// speakup-lint: hot-path (allocation-free steady state; growth sites must
// be amortized and allowlisted in tools/lint_allowlist.txt)
#include "transport/host.hpp"

#include "util/log.hpp"

namespace speakup::transport {

Host::~Host() {
  for (std::uint32_t i = 0; i < table_cap_; ++i) {
    const TableEntry& e = table_[i];
    if (e.slot == kNilSlot) continue;
    // A destroy event left pending would fire into a dead host.
    ConnectionRecord& rec = slab()[e.slot];
    if (rec.releasing) loop().cancel(rec.release_ev);
    slab().erase(e.slot);
  }
}

TcpConnection& Host::connect(net::NodeId dst, std::uint32_t dst_port) {
  TcpConnection& conn = emplace_connection(alloc_port(), dst, dst_port, /*initiator=*/true);
  conn.start_handshake();
  return conn;
}

void Host::listen(std::uint32_t port, std::function<void(TcpConnection&)> on_accept) {
  if (!listeners_) listeners_ = std::make_unique<Listeners>();
  util::require(listeners_->find(port) == listeners_->end(),
                "port already has a listener on host " + name());
  (*listeners_)[port] = std::move(on_accept);
}

std::size_t Host::find_index(std::uint32_t local_port, net::NodeId remote,
                             std::uint32_t remote_port) const {
  const std::size_t mask = table_cap_ - 1;
  std::size_t i = key_hash(local_port, remote, remote_port) & mask;
  for (;;) {
    const TableEntry& e = table_[i];
    if (e.slot == kNilSlot ||
        (e.local_port == local_port && e.remote == remote && e.remote_port == remote_port)) {
      return i;
    }
    i = (i + 1) & mask;
  }
}

void Host::table_grow() {
  const std::unique_ptr<TableEntry[]> old = std::move(table_);
  const std::uint32_t old_cap = table_cap_;
  table_cap_ = old_cap == 0 ? 4 : old_cap * 2;
  table_ = std::make_unique<TableEntry[]>(table_cap_);
  const std::size_t mask = table_cap_ - 1;
  for (std::uint32_t k = 0; k < old_cap; ++k) {
    const TableEntry& e = old[k];
    if (e.slot == kNilSlot) continue;
    std::size_t i = probe_of(e);
    while (table_[i].slot != kNilSlot) i = (i + 1) & mask;
    table_[i] = e;
  }
}

void Host::table_insert(std::uint32_t local_port, net::NodeId remote,
                        std::uint32_t remote_port, std::uint32_t slot) {
  // Grow at ~70% load so probe runs stay short.
  if (table_cap_ == 0 || (table_size_ + 1) * 10 > table_cap_ * 7) table_grow();
  const std::size_t i = find_index(local_port, remote, remote_port);
  SPEAKUP_ASSERT(table_[i].slot == kNilSlot);
  table_[i] = TableEntry{local_port, remote, remote_port, slot};
  ++table_size_;
  SPEAKUP_AUDIT_ONLY(maybe_audit();)
}

void Host::table_erase(std::uint32_t local_port, net::NodeId remote,
                       std::uint32_t remote_port) {
  const std::size_t mask = table_cap_ - 1;
  std::size_t i = find_index(local_port, remote, remote_port);
  SPEAKUP_ASSERT(table_[i].slot != kNilSlot);
  table_[i].slot = kNilSlot;
  --table_size_;
  // Backward-shift deletion: re-seat any displaced entries in the cluster
  // so lookups never need tombstones.
  std::size_t j = i;
  for (;;) {
    j = (j + 1) & mask;
    if (table_[j].slot == kNilSlot) break;
    const std::size_t ideal = probe_of(table_[j]);
    if (((j - ideal) & mask) >= ((j - i) & mask)) {
      table_[i] = table_[j];
      table_[j].slot = kNilSlot;
      i = j;
    }
  }
}

#if SPEAKUP_AUDIT_ENABLED
void Host::audit() const {
  audit_table();
  slab().audit();
}

void Host::audit_table() const {
  SPEAKUP_AUDIT_CHECK((table_cap_ & (table_cap_ - 1)) == 0,
                      "Host: demux table size must be a power of two");
  const ConnectionSlab& slab = this->slab();
  const std::vector<std::uint8_t> live = slab.Slab::audit();
  std::vector<std::uint8_t> tabled(slab.size(), 0);
  std::uint32_t occupied = 0;
  for (std::uint32_t i = 0; i < table_cap_; ++i) {
    const TableEntry& e = table_[i];
    if (e.slot == kNilSlot) continue;
    ++occupied;
    SPEAKUP_AUDIT_CHECK(e.slot < slab.size(), "Host: table entry slot out of range");
    SPEAKUP_AUDIT_CHECK(live[e.slot], "Host: table entry must point at a live connection");
    SPEAKUP_AUDIT_CHECK(!tabled[e.slot], "Host: slot tabled more than once");
    tabled[e.slot] = 1;
    // Probe-chain reachability: a lookup starting at the key's home bucket
    // must land on this very entry (backward-shift deletion's contract).
    SPEAKUP_AUDIT_CHECK(find_index(e.local_port, e.remote, e.remote_port) == i,
                        "Host: table entry unreachable from its home probe");
    const TcpConnection* conn = conn_at(e.slot);
    SPEAKUP_AUDIT_CHECK(&conn->host() == this, "Host: tabled connection must belong to this host");
    SPEAKUP_AUDIT_CHECK(conn->local_port() == e.local_port && conn->remote_node() == e.remote &&
                            conn->remote_port() == e.remote_port,
                        "Host: table key must match the connection's endpoints");
  }
  SPEAKUP_AUDIT_CHECK(occupied == table_size_,
                      "Host: table_size_ must count the occupied entries");
}

void Host::corrupt_table_for_test() {
  for (std::uint32_t i = 0; i < table_cap_; ++i) {
    TableEntry& e = table_[i];
    if (e.slot != kNilSlot) {
      e.slot = kNilSlot;
      --table_size_;
      return;
    }
  }
}

void Host::corrupt_slab_for_test() {
  for (std::uint32_t i = 0; i < table_cap_; ++i) {
    const TableEntry& e = table_[i];
    if (e.slot != kNilSlot) {
      slab().erase(e.slot);
      return;
    }
  }
}
#endif

TcpConnection& Host::emplace_connection(std::uint32_t local_port, net::NodeId remote,
                                        std::uint32_t remote_port, bool initiator) {
  SPEAKUP_ASSERT(find_connection(local_port, remote, remote_port) == nullptr);
  const std::uint32_t slot =
      slab().emplace(*this, local_port, remote, remote_port, tcp_config(), initiator);
  table_insert(local_port, remote, remote_port, slot);
  ++connections_created_;
  return *conn_at(slot);
}

TcpConnection* Host::find_connection(std::uint32_t local_port, net::NodeId remote,
                                     std::uint32_t remote_port) const {
  if (table_cap_ == 0) return nullptr;
  const std::size_t i = find_index(local_port, remote, remote_port);
  return table_[i].slot == kNilSlot ? nullptr : conn_at(table_[i].slot);
}

void Host::on_packet(net::Packet p) {
  SPEAKUP_ASSERT(p.dst == id());
  if (TcpConnection* conn = find_connection(p.dst_port, p.src, p.src_port)) {
    conn->on_packet(p);
    return;
  }
  // No matching connection. A SYN to a listening port spawns one.
  if (p.kind == net::PacketKind::kSyn && listeners_) {
    const auto lit = listeners_->find(p.dst_port);
    if (lit != listeners_->end()) {
      TcpConnection& conn =
          emplace_connection(p.dst_port, p.src, p.src_port, /*initiator=*/false);
      // Link the two endpoints so the message layer can pass descriptors.
      auto& src_host = dynamic_cast<Host&>(network().node(p.src));
      if (TcpConnection* initiator = src_host.find_connection(p.src_port, id(), p.dst_port)) {
        conn.link_peer(initiator);
        initiator->link_peer(&conn);
      }
      lit->second(conn);  // accept callback may set callbacks / write
      conn.start_passive();
      return;
    }
  }
  // Anything else aimed at nothing gets an abortive reply, so stale
  // retransmissions from half-closed peers clean themselves up.
  if (p.kind != net::PacketKind::kRst) {
    send_packet(net::make_control_packet(id(), p.dst_port, p.src, p.src_port,
                                         net::PacketKind::kRst));
  }
}

void Host::release(TcpConnection* conn) {
  SPEAKUP_ASSERT(conn != nullptr && conn->closed());
  const std::size_t i =
      find_index(conn->local_port(), conn->remote_node(), conn->remote_port());
  SPEAKUP_ASSERT(table_[i].slot != kNilSlot && conn_at(table_[i].slot) == conn);
  const std::uint32_t slot = table_[i].slot;
  ConnectionRecord& rec = slab()[slot];
  SPEAKUP_ASSERT(!rec.releasing);
  rec.releasing = true;
  // Deferred: the connection may be deep in its own call stack right now.
  // The table entry stays until the event fires, exactly like the previous
  // map-based teardown, so demux keeps finding the closed connection.
  rec.release_ev = loop().schedule(Duration::zero(), [this, slot] {
    const TcpConnection* victim = conn_at(slot);
    table_erase(victim->local_port(), victim->remote_node(), victim->remote_port());
    ConnectionSlab& slab = this->slab();
    slab.erase(slot);
    SPEAKUP_AUDIT_ONLY(maybe_audit(); slab.maybe_audit();)
  });
}

}  // namespace speakup::transport
