// An end host: a network node that owns TCP connections and demultiplexes
// arriving packets to them. Hosts initiate connections (connect) and accept
// them (listen). A packet that matches no connection and no listener is
// answered with RST, which lets half-dead connections clean themselves up.
//
// The connections themselves live in the network's one ConnectionSlab
// (stable addresses: the rest of the stack holds TcpConnection&). A host
// keeps only its demux table: open addressing from (local_port, remote,
// remote_port) to a slab slot id. A client host that once connected thus
// costs its table, not a slot for every connection it ever held at once.
// Listeners sit out of line: only server-side hosts have any, so a client
// host pays one null pointer for them.
// Steady-state connect/teardown churn (one connection per request and per
// payment POST at 10^5-client scale) reuses slab records and probes a flat
// array: no allocator traffic, no tree walks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/network.hpp"
#include "net/node.hpp"
#include "sim/event_loop.hpp"
#include "transport/connection_slab.hpp"
#include "transport/tcp_connection.hpp"
#include "util/assert.hpp"
#include "util/audit.hpp"

namespace speakup::transport {

class Host : public net::Node {
 public:
  Host(net::Network& net, net::NodeId id, std::string name)
      : Node(net, id, std::move(name)) {}

  /// Destroys the connections this host holds, cancelling any pending
  /// deferred destroy, and returns their slots to the slab.
  ~Host() override;

  /// Replaces the TCP tunables for connections this host opens or accepts.
  /// Connections read the config in place, so it cannot change under them:
  /// throws std::invalid_argument, naming the host, once it holds any.
  void set_tcp_config(const TcpConfig& cfg) {
    util::require(table_size_ == 0, "set_tcp_config: host " + name() +
                                        " holds live connections, which read its TCP "
                                        "config in place");
    own_tcp_cfg_ = std::make_unique<const TcpConfig>(cfg);
  }
  [[nodiscard]] const TcpConfig& tcp_config() const {
    return own_tcp_cfg_ ? *own_tcp_cfg_ : kDefaultTcpConfig;
  }

  /// Opens a connection to (dst, dst_port). The returned reference stays
  /// valid until the connection closes (teardown destroys it on the next
  /// event-loop tick).
  TcpConnection& connect(net::NodeId dst, std::uint32_t dst_port);

  /// Registers an accept callback for a port.
  void listen(std::uint32_t port, std::function<void(TcpConnection&)> on_accept);

  void on_packet(net::Packet p) override;

  void send_packet(net::Packet p) { network().forward(id(), std::move(p)); }

  [[nodiscard]] TcpConnection* find_connection(std::uint32_t local_port, net::NodeId remote,
                                               std::uint32_t remote_port) const;

  /// Schedules destruction of a closed connection (deferred so callers on
  /// the current stack stay valid).
  void release(TcpConnection* conn);

  [[nodiscard]] sim::EventLoop& loop() const { return network().loop(); }
  [[nodiscard]] std::int64_t connections_created() const { return connections_created_; }
  [[nodiscard]] std::size_t live_connections() const { return table_size_; }

#if SPEAKUP_AUDIT_ENABLED
  /// Structural audit (SPEAKUP_AUDIT builds only): every table entry
  /// reachable from its home probe and pointing, at most once, to a
  /// non-empty slab slot whose connection belongs to this host under the
  /// entry's key; then the slab's own audit (ConnectionSlab::audit). The
  /// table half runs every kAuditPeriod table mutations.
  void audit() const;
  /// Deliberate corruption for tests/audit_test.cpp: drops one live table
  /// entry without releasing its slot — the signature of a lost erase.
  void corrupt_table_for_test();
  /// Deliberate corruption for tests/audit_test.cpp: returns one tabled
  /// slot to the slab while the table still points to it — the signature
  /// of a destroy that skipped the table erase.
  void corrupt_slab_for_test();
#endif

 private:
  static constexpr std::uint32_t kNilSlot = util::kNil;

  /// One open-addressing table entry; slot == kNilSlot marks it empty.
  struct TableEntry {
    std::uint32_t local_port = 0;
    net::NodeId remote = 0;
    std::uint32_t remote_port = 0;
    std::uint32_t slot = kNilSlot;
  };

  TcpConnection& emplace_connection(std::uint32_t local_port, net::NodeId remote,
                                    std::uint32_t remote_port, bool initiator);
  std::uint32_t alloc_port() { return next_port_++; }

  [[nodiscard]] ConnectionSlab& slab() const { return ConnectionSlab::of(network()); }
  [[nodiscard]] TcpConnection* conn_at(std::uint32_t slot) const { return &slab()[slot].conn; }

  static std::uint64_t key_hash(std::uint32_t local_port, net::NodeId remote,
                                std::uint32_t remote_port) {
    std::uint64_t z = (static_cast<std::uint64_t>(local_port) << 32) ^
                      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(remote)) << 16) ^
                      remote_port;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  [[nodiscard]] std::size_t probe_of(const TableEntry& e) const {
    return key_hash(e.local_port, e.remote, e.remote_port) & (table_cap_ - 1);
  }

  /// Index of the entry for the key, or of the empty slot where it would
  /// insert. Table must be non-empty.
  [[nodiscard]] std::size_t find_index(std::uint32_t local_port, net::NodeId remote,
                                       std::uint32_t remote_port) const;

  void table_insert(std::uint32_t local_port, net::NodeId remote,
                    std::uint32_t remote_port, std::uint32_t slot);
  void table_erase(std::uint32_t local_port, net::NodeId remote,
                   std::uint32_t remote_port);
  void table_grow();

  /// Shared by every host that never calls set_tcp_config, so a client
  /// host does not carry its own copy.
  static inline const TcpConfig kDefaultTcpConfig{};
  using Listeners = std::map<std::uint32_t, std::function<void(TcpConnection&)>>;

  std::unique_ptr<const TcpConfig> own_tcp_cfg_;  // null: kDefaultTcpConfig
  std::unique_ptr<TableEntry[]> table_;  // power-of-two open addressing
  std::uint32_t table_cap_ = 0;          // entries in table_ (0 or a power of two)
  std::uint32_t table_size_ = 0;         // occupied entries
  std::unique_ptr<Listeners> listeners_;  // made by the first listen()
  std::uint32_t next_port_ = 1024;
  std::int64_t connections_created_ = 0;
#if SPEAKUP_AUDIT_ENABLED
  static constexpr std::uint64_t kAuditPeriod = 64;
  std::uint64_t audit_countdown_ = kAuditPeriod;
  void audit_table() const;
  void maybe_audit() {
    if (--audit_countdown_ == 0) {
      audit_countdown_ = kAuditPeriod;
      audit_table();
    }
  }
#endif
};

}  // namespace speakup::transport
