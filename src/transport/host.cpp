// speakup-lint: hot-path (allocation-free steady state; growth sites must
// be amortized and allowlisted in tools/lint_allowlist.txt)
#include "transport/host.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace speakup::transport {

Host::~Host() {
  for (std::uint32_t slot = 0; slot < states_.size(); ++slot) {
    // A destroy event left pending would fire into a dead host.
    if (states_[slot] == SlotState::kReleasing) loop().cancel(release_ev_[slot]);
    if (states_[slot] != SlotState::kEmpty) conn_at(slot)->~TcpConnection();
  }
}

TcpConnection& Host::connect(net::NodeId dst, std::uint32_t dst_port) {
  TcpConnection& conn = emplace_connection(alloc_port(), dst, dst_port, /*initiator=*/true);
  conn.start_handshake();
  return conn;
}

void Host::listen(std::uint32_t port, std::function<void(TcpConnection&)> on_accept) {
  util::require(listeners_.find(port) == listeners_.end(),
                "port already has a listener on host " + name());
  listeners_[port] = std::move(on_accept);
}

std::uint32_t Host::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(states_.size());
  if (slot % kChunk == 0) {
    chunks_.push_back(std::make_unique<RawSlot[]>(kChunk));
    // Reserve at least the whole chunk's metadata now: the slot high-water
    // mark can rise mid-run (a deferred release overlapping an immediate
    // reconnect), and that moment must not touch the allocator — only chunk
    // boundaries may (the client pool's steady state stays
    // allocation-free). Growth is geometric, so a host holding thousands of
    // connections does not recopy its metadata every kChunk slots.
    const std::size_t need = chunks_.size() * kChunk;
    const auto reserve = [need](auto& v) {
      if (v.capacity() < need) v.reserve(std::max(need, 2 * v.capacity()));
    };
    reserve(states_);
    reserve(release_ev_);
    reserve(free_);
  }
  states_.push_back(SlotState::kEmpty);
  release_ev_.emplace_back();
  return slot;
}

std::size_t Host::find_index(std::uint32_t local_port, net::NodeId remote,
                             std::uint32_t remote_port) const {
  const std::size_t mask = table_.size() - 1;
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
  std::vector<TableEntry> old;
  old.swap(table_);
  table_.resize(old.empty() ? 4 : old.size() * 2);
  for (const TableEntry& e : old) {
    if (e.slot == kNilSlot) continue;
    std::size_t i = probe_of(e);
    const std::size_t mask = table_.size() - 1;
    while (table_[i].slot != kNilSlot) i = (i + 1) & mask;
    table_[i] = e;
  }
}

void Host::table_insert(std::uint32_t local_port, net::NodeId remote,
                        std::uint32_t remote_port, std::uint32_t slot) {
  // Grow at ~70% load so probe runs stay short.
  if (table_.empty() || (table_size_ + 1) * 10 > table_.size() * 7) table_grow();
  const std::size_t i = find_index(local_port, remote, remote_port);
  SPEAKUP_ASSERT(table_[i].slot == kNilSlot);
  table_[i] = TableEntry{local_port, remote, remote_port, slot};
  ++table_size_;
  SPEAKUP_AUDIT_ONLY(maybe_audit();)
}

void Host::table_erase(std::uint32_t local_port, net::NodeId remote,
                       std::uint32_t remote_port) {
  const std::size_t mask = table_.size() - 1;
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
  SPEAKUP_AUDIT_CHECK(table_.empty() || (table_.size() & (table_.size() - 1)) == 0,
                      "Host: demux table size must be a power of two");
  std::vector<std::uint8_t> tabled(states_.size(), 0);
  std::size_t occupied = 0;
  for (std::size_t i = 0; i < table_.size(); ++i) {
    const TableEntry& e = table_[i];
    if (e.slot == kNilSlot) continue;
    ++occupied;
    SPEAKUP_AUDIT_CHECK(e.slot < states_.size(), "Host: table entry slot out of range");
    SPEAKUP_AUDIT_CHECK(states_[e.slot] != SlotState::kEmpty,
                        "Host: table entry must point at a constructed connection");
    SPEAKUP_AUDIT_CHECK(!tabled[e.slot], "Host: slot tabled more than once");
    tabled[e.slot] = 1;
    // Probe-chain reachability: a lookup starting at the key's home bucket
    // must land on this very entry (backward-shift deletion's contract).
    SPEAKUP_AUDIT_CHECK(find_index(e.local_port, e.remote, e.remote_port) == i,
                        "Host: table entry unreachable from its home probe");
    const TcpConnection* conn = conn_at(e.slot);
    SPEAKUP_AUDIT_CHECK(conn->local_port() == e.local_port && conn->remote_node() == e.remote &&
                            conn->remote_port() == e.remote_port,
                        "Host: table key must match the connection's endpoints");
  }
  SPEAKUP_AUDIT_CHECK(occupied == table_size_,
                      "Host: table_size_ must count the occupied entries");
  std::size_t empty_slots = 0;
  for (std::uint32_t slot = 0; slot < states_.size(); ++slot) {
    switch (states_[slot]) {
      case SlotState::kEmpty:
        ++empty_slots;
        SPEAKUP_AUDIT_CHECK(!tabled[slot], "Host: empty slot must not be tabled");
        break;
      case SlotState::kLive:
        SPEAKUP_AUDIT_CHECK(tabled[slot], "Host: live slot must be tabled");
        break;
      case SlotState::kReleasing:
        SPEAKUP_AUDIT_CHECK(tabled[slot], "Host: releasing slot stays tabled until destroyed");
        SPEAKUP_AUDIT_CHECK(release_ev_[slot].pending(),
                            "Host: releasing slot must hold a pending destroy event");
        break;
    }
  }
  std::vector<std::uint8_t> freed(states_.size(), 0);
  for (const std::uint32_t slot : free_) {
    SPEAKUP_AUDIT_CHECK(slot < states_.size(), "Host: free-list slot out of range");
    SPEAKUP_AUDIT_CHECK(states_[slot] == SlotState::kEmpty, "Host: free-list slot must be empty");
    SPEAKUP_AUDIT_CHECK(!freed[slot], "Host: slot freed more than once");
    freed[slot] = 1;
  }
  SPEAKUP_AUDIT_CHECK(free_.size() == empty_slots,
                      "Host: free list must cover exactly the empty slots");
}

void Host::corrupt_table_for_test() {
  for (TableEntry& e : table_) {
    if (e.slot != kNilSlot) {
      e.slot = kNilSlot;
      --table_size_;
      return;
    }
  }
}
#endif

TcpConnection& Host::emplace_connection(std::uint32_t local_port, net::NodeId remote,
                                        std::uint32_t remote_port, bool initiator) {
  SPEAKUP_ASSERT(find_connection(local_port, remote, remote_port) == nullptr);
  const std::uint32_t slot = acquire_slot();
  TcpConnection* conn = ::new (static_cast<void*>(chunks_[slot / kChunk][slot % kChunk].bytes))
      TcpConnection(*this, local_port, remote, remote_port, tcp_cfg_, initiator);
  states_[slot] = SlotState::kLive;
  table_insert(local_port, remote, remote_port, slot);
  ++connections_created_;
  return *conn;
}

TcpConnection* Host::find_connection(std::uint32_t local_port, net::NodeId remote,
                                     std::uint32_t remote_port) const {
  if (table_.empty()) return nullptr;
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
  if (p.kind == net::PacketKind::kSyn) {
    const auto lit = listeners_.find(p.dst_port);
    if (lit != listeners_.end()) {
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
  SPEAKUP_ASSERT(states_[slot] == SlotState::kLive);
  states_[slot] = SlotState::kReleasing;
  // Deferred: the connection may be deep in its own call stack right now.
  // The table entry stays until the event fires, exactly like the previous
  // map-based teardown, so demux keeps finding the closed connection.
  release_ev_[slot] = loop().schedule(Duration::zero(), [this, slot] {
    TcpConnection* victim = conn_at(slot);
    table_erase(victim->local_port(), victim->remote_node(), victim->remote_port());
    victim->~TcpConnection();
    states_[slot] = SlotState::kEmpty;
    free_.push_back(slot);
    SPEAKUP_AUDIT_ONLY(maybe_audit();)
  });
}

}  // namespace speakup::transport
