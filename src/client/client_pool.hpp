// The request-generating client of §7.1, used for every population:
//
//   - requests arrive by the workload strategy's arrival process (the
//     default "poisson" strategy is §7.1's Poisson process of rate lambda);
//   - at most `window` requests are outstanding (the strategy may vary the
//     window over time); excess arrivals wait in a backlog queue and become
//     service denials after 10 s;
//   - an outstanding request that gets no response within its request
//     timeout (300 s by default) is a denial.
//
// Good clients run lambda = 2, window = 1; bad clients lambda = 40,
// window = 20 (requests sent concurrently) — §7.1. The client is purely
// reactive to the thinner: kPleasePay consults the strategy and (normally)
// starts a payment channel (§3.3 mode), kRetry starts an aggressive
// congestion-controlled retry stream (§3.2 mode), kBusy is an immediate
// failure (no-defense baseline). Hence the same client code runs under
// every defense mode, like the paper's single custom client — and every
// behavioral decision (arrival timing, window, paying, defecting) is
// delegated to a pluggable client::Strategy from the adversary library
// (strategy.hpp), so new attacker behaviors need no client edits.
//
// One ClientPool runs an entire client group (one WorkloadParams, N
// members; a lone client is a one-member pool) with one Strategy, which
// every member shares. Per-member state lives in dense parallel arrays
// indexed by member id: stats, RNG stream, request-id counter, and the
// heads of the member's backlog and outstanding lists. No member owns a
// heap object: backlogged arrival times and outstanding requests live in
// two pool-wide util::Slab stores threaded into per-member lists, and all
// members share one http::SessionPool.
//
// Arrival batching keeps 10^5-10^6-client groups cheap: instead of one
// pending event-loop entry per member, the pool keeps ONE armed event per
// cohort and an indexed min-heap of per-member (when, seq) keys. Each
// member still takes its place in the loop's (when, seq) total order
// through the reserve_seq / schedule_keyed split in sim::EventLoop:
//
//   - drawing a member's next arrival calls loop.reserve_seq(), consuming
//     the sequence number a per-member schedule() would have taken at that
//     point in execution, and parks (when, seq) in the cohort heap;
//   - the cohort's single armed event is filed with schedule_keyed() under
//     the heap minimum's reserved key, so it occupies exactly the slot in
//     the (when, seq) order that the member's own event would have;
//   - each fire handles exactly one member's arrival (one executed event)
//     and re-arms at the new minimum.
//
// So how members are grouped into pools never changes the event sequence;
// tests/hotpath_fingerprint_test.cpp pins the resulting fingerprints on
// every checked-in scenario file but the 10^5-client million_clients.json.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "client/client_stats.hpp"
#include "client/payment_channel.hpp"
#include "client/strategy.hpp"
#include "client/workload_params.hpp"
#include "http/message.hpp"
#include "http/message_stream.hpp"
#include "http/session_pool.hpp"
#include "sim/event_loop.hpp"
#include "sim/timer.hpp"
#include "transport/host.hpp"
#include "util/audit.hpp"
#include "util/rng.hpp"
#include "util/slab.hpp"

namespace speakup::client {

class ClientPool {
 public:
  /// `base_index` is the global client index of member 0; members are
  /// globally indexed base_index, base_index+1, ... (trace track ids and
  /// request-id namespaces).
  ClientPool(sim::EventLoop& loop, net::NodeId thinner, const WorkloadParams& params,
             std::uint32_t base_index);

  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;
  ~ClientPool();

  /// Sizes the per-member arrays for `n` members, so the add_member calls
  /// that follow never regrow them (a regrowth moves every member's entries
  /// and holds the old and new arrays at once).
  void reserve(std::size_t n);

  /// Adds one member: hosts in global client order, each with its own
  /// seeded RNG stream.
  void add_member(transport::Host& host, util::RngStream rng);

  /// Starts every member's arrival process, in member order.
  void start_all();

  /// Stops issuing new requests for one member (outstanding ones keep
  /// running).
  void pause(std::uint32_t member) { paused_[member] = 1; }

  [[nodiscard]] std::size_t size() const { return hosts_.size(); }
  [[nodiscard]] const ClientStats& stats(std::uint32_t member) const {
    return stats_[member];
  }
  [[nodiscard]] std::size_t outstanding(std::uint32_t member) const {
    return outstanding_[member].count;
  }
  [[nodiscard]] std::size_t backlog(std::uint32_t member) const {
    return backlogs_[member].count;
  }

  // --- request-slab introspection (dense-id reuse tests) -----------------
  /// Total request slots ever created (high-water mark of concurrency).
  [[nodiscard]] std::uint32_t request_slots() const { return requests_.size(); }
  [[nodiscard]] std::size_t live_requests() const { return requests_.in_use(); }

#if SPEAKUP_AUDIT_ENABLED
  /// Structural audit (SPEAKUP_AUDIT builds only): parallel member arrays
  /// aligned, cohort min-heap property with each member at most once, armed
  /// event agreement with the heap minimum, the two slabs' own audits,
  /// outstanding lists holding exactly the live requests of their member,
  /// and backlogs holding exactly the live backlog nodes.
  /// Runs every kAuditPeriod cohort fires (plus at start_all).
  void audit() const;
  /// Deliberate corruption for tests/audit_test.cpp: swaps the heap's root
  /// and last entry, breaking the min-heap order — the signature of a
  /// missed sift.
  void corrupt_heap_for_test();
#endif

 private:
  static constexpr std::uint32_t kNilSlot = util::kNil;

  struct Request {
    std::uint64_t id = 0;  // (global_index + 1) << 32 | per-client seq
    std::uint32_t member = 0;
    SimTime sent;
    http::MessageStream* stream = nullptr;
    std::optional<PaymentChannelClient> payment;
    std::optional<sim::Timer> timer;
    std::optional<sim::Timer> defect_timer;
    bool paying = false;
    SimTime pay_started;
    bool retry_pumping = false;
    std::int64_t retries_sent = 0;
    std::uint32_t next_outstanding = kNilSlot;  // the member's next request slot
  };

  enum class Disposition { kServed, kDenied, kBusyRejected };

  /// A member's outstanding requests: a list threaded through the request
  /// slab's `next_outstanding` indices (order carries no meaning).
  struct OutstandingList {
    std::uint32_t head = kNilSlot;
    std::uint32_t count = 0;
  };

  /// One backlogged arrival, linked into its member's FIFO.
  struct BacklogNode {
    SimTime when;
    std::uint32_t next = kNilSlot;
  };
  using Backlog = util::IndexList<&BacklogNode::next>;

  // --- client logic (one member at a time) --------------------------------
  [[nodiscard]] StrategyView view(std::uint32_t m) const;
  [[nodiscard]] int current_window(std::uint32_t m);
  void on_arrival(std::uint32_t m);
  void start_request(std::uint32_t m);
  void on_message(Request& r, const http::Message& m);
  void abandon_payment(std::uint64_t id);
  void pump_retries(Request& r);
  void finish(std::uint64_t id, Disposition d);
  void purge_backlog(std::uint32_t m);
  void drain_backlog(std::uint32_t m);

  [[nodiscard]] std::uint32_t global_index(std::uint32_t m) const {
    return base_index_ + m;
  }
  [[nodiscard]] std::uint64_t id_base(std::uint32_t m) const {
    return static_cast<std::uint64_t>(global_index(m) + 1) << 32;
  }

  /// The live request with this full id, or nullptr (finish() idempotence:
  /// the full 64-bit id doubles as a generation check).
  [[nodiscard]] Request* find_request(std::uint64_t id, std::uint32_t* out_slot);

  // --- cohort arrival heap ------------------------------------------------
  /// Draws the member's next arrival gap and reserves the seq a per-member
  /// schedule() would have consumed. The caller places m in the heap.
  void draw_next_arrival(std::uint32_t m);
  void heap_pop_min();
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  [[nodiscard]] bool heap_less(std::uint32_t a, std::uint32_t b) const {
    return arr_when_[a] < arr_when_[b] ||
           (arr_when_[a] == arr_when_[b] && arr_seq_[a] < arr_seq_[b]);
  }
  void arm_next();
  void fire();

  sim::EventLoop* loop_;
  net::NodeId thinner_;
  WorkloadParams params_;
  std::uint32_t base_index_;
  std::unique_ptr<Strategy> strategy_;  // shared by every member
  http::Message request_template_;  // interned kRequest header; id set per send
  http::SessionPool session_pool_;

  // Per-member parallel arrays (index = member id).
  std::vector<transport::Host*> hosts_;
  std::vector<util::RngStream> rngs_;
  std::vector<ClientStats> stats_;
  std::vector<std::uint32_t> next_seq_;
  std::vector<std::uint8_t> paused_;
  std::vector<Backlog> backlogs_;
  std::vector<OutstandingList> outstanding_;

  // Pending-arrival keys + a min-heap over members.
  std::vector<SimTime> arr_when_;
  std::vector<std::uint64_t> arr_seq_;
  std::vector<std::uint32_t> heap_;  // member ids, heap-ordered
  sim::EventId armed_ev_;

  util::Slab<BacklogNode, 256> backlog_nodes_;  // 4 KB a chunk
  util::Slab<Request, 64> requests_;

#if SPEAKUP_AUDIT_ENABLED
  static constexpr std::uint64_t kAuditPeriod = 256;
  std::uint64_t audit_countdown_ = kAuditPeriod;
#endif
};

}  // namespace speakup::client
