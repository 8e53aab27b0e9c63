#include "exp/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "core/front_end_factory.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace speakup::exp {

Experiment::Experiment(ScenarioConfig cfg) : cfg_(std::move(cfg)) {
  util::require(cfg_.capacity_rps > 0, "capacity must be positive");
  util::require(cfg_.duration > Duration::zero(), "duration must be positive");
  build();
}

Experiment::~Experiment() = default;

void Experiment::build() {
  net_ = std::make_unique<net::Network>(loop_);
  // Core, thinner, the optional bottleneck switch, proxy and bystander
  // pair, and every client host: the per-node arrays are sized once.
  std::size_t nodes = 2 + (cfg_.bottleneck.has_value() ? 1 : 0) +
                      (cfg_.proxy.has_value() ? 1 : 0) + (cfg_.collateral.has_value() ? 2 : 0);
  for (const ClientGroupSpec& g : cfg_.groups) {
    nodes += static_cast<std::size_t>(std::max(g.count, 0));
  }
  net_->reserve(nodes);

  // LAN core and the thinner behind a fat access link (condition C1).
  net::Switch& core = net_->add_switch("core");
  thinner_host_ = &net_->add_node<transport::Host>("thinner");
  net_->connect(*thinner_host_, core,
                net::LinkSpec{cfg_.thinner_bw, cfg_.thinner_delay, cfg_.thinner_queue});

  // Optional shared bottleneck subtree (§7.6 link l / §7.7 link m).
  net::Switch* bn_switch = nullptr;
  if (cfg_.bottleneck.has_value()) {
    bn_switch = &net_->add_switch("bottleneck-sw");
    net_->connect(*bn_switch, core,
                  net::LinkSpec{cfg_.bottleneck->rate, cfg_.bottleneck->delay,
                                cfg_.bottleneck->queue});
  }

  // §9 payment proxy (optional): pays the thinner on behalf of the groups
  // flagged via_proxy.
  transport::Host* proxy_host = nullptr;
  if (cfg_.proxy.has_value()) {
    proxy_host = &net_->add_node<transport::Host>("payment-proxy");
    net_->connect(*proxy_host, core,
                  net::LinkSpec{cfg_.proxy->uplink, cfg_.proxy->delay, cfg_.proxy->queue});
  }

  // Client populations: one ClientPool per group, members in global client
  // order, each with its own seeded RNG stream.
  std::uint32_t client_index = 0;
  for (const ClientGroupSpec& g : cfg_.groups) {
    util::require(!g.behind_bottleneck || bn_switch != nullptr,
                  "group '" + g.label + "' is behind a bottleneck but none is configured");
    util::require(!g.via_proxy || proxy_host != nullptr,
                  "group '" + g.label + "' uses the proxy but none is configured");
    const net::NodeId front_end =
        g.via_proxy ? proxy_host->id() : thinner_host_->id();
    auto& pool = *pools_.emplace_back(
        std::make_unique<client::ClientPool>(loop_, front_end, g.workload, client_index));
    pool.reserve(static_cast<std::size_t>(g.count));
    for (int i = 0; i < g.count; ++i) {
      auto& host = net_->add_node<transport::Host>(g.label + "-" + std::to_string(i));
      net_->connect(host, g.behind_bottleneck ? static_cast<net::Node&>(*bn_switch)
                                              : static_cast<net::Node&>(core),
                    net::LinkSpec{g.access_bw, g.access_delay, g.access_queue});
      pool.add_member(host,
                      util::RngStream(cfg_.seed, "client." + std::to_string(client_index)));
      ++client_index;
    }
  }

  // §7.7 bystander: web server S on the fast side, downloader H wherever
  // the spec puts it (behind the bottleneck, in the paper).
  if (cfg_.collateral.has_value()) {
    const CollateralSpec& c = *cfg_.collateral;
    auto& web = net_->add_node<transport::Host>("webserver");
    net_->connect(web, core,
                  net::LinkSpec{Bandwidth::mbps(100.0), Duration::micros(500), 1'000'000});
    file_server_ = std::make_unique<client::StaticFileServer>(web);
    auto& h = net_->add_node<transport::Host>("downloader");
    util::require(!c.behind_bottleneck || bn_switch != nullptr,
                  "collateral downloader needs a configured bottleneck");
    net_->connect(h, c.behind_bottleneck ? static_cast<net::Node&>(*bn_switch)
                                         : static_cast<net::Node&>(core),
                  net::LinkSpec{c.access_bw, c.access_delay, 96'000});
    client::FileTransferClient::Config fc;
    fc.server = web.id();
    fc.file_size = c.file_size;
    fc.count = c.downloads;
    downloader_ = std::make_unique<client::FileTransferClient>(h, fc);
  }

  net_->build_routes();

  if (proxy_host != nullptr) {
    client::PaymentProxy::Config pc;
    pc.thinner = thinner_host_->id();
    proxy_ = std::make_unique<client::PaymentProxy>(*proxy_host, pc);
  }

  // Front end: whatever defense the scenario names, via the registry.
  core::FrontEndConfig fc;
  fc.capacity_rps = cfg_.capacity_rps;
  fc.response_body = cfg_.response_body;
  fc.payment_window = cfg_.payment_window;
  fc.quantum = cfg_.quantum;
  fc.suspension_limit = cfg_.suspension_limit;
  fc.elastic_max_scale = cfg_.elastic_max_scale;
  fc.elastic_interval = cfg_.elastic_interval;
  fc.elastic_threshold = cfg_.elastic_threshold;
  fc.puzzle_cost = cfg_.puzzle_cost;
  front_end_ = core::FrontEndFactory::instance().create(
      cfg_.defense, *thinner_host_, fc, util::RngStream(cfg_.seed, "server"));
}

ExperimentResult Experiment::run() {
  util::require(!ran_, "Experiment::run is callable once");
  ran_ = true;

  const auto wall_start = std::chrono::steady_clock::now();
  front_end_->on_run_start();
  for (const auto& pool : pools_) pool->start_all();
  if (downloader_ != nullptr) {
    loop_.schedule(cfg_.collateral->start_delay, [this] { downloader_->start(); });
  }
  loop_.run_until(SimTime::zero() + cfg_.duration);
  front_end_->on_run_end();
  const auto wall_end = std::chrono::steady_clock::now();

  ExperimentResult r;
  r.defense = cfg_.defense;
  r.sim_duration = cfg_.duration;
  r.events_executed = loop_.executed_events();
  r.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  r.thinner = front_end_->stats();
  r.served_good = r.thinner.served_good;
  r.served_bad = r.thinner.served_bad;
  r.served_total = r.thinner.served_total();
  r.allocation_good = r.thinner.allocation_good();
  r.allocation_bad = r.thinner.allocation_bad();

  // Server-time split.
  const Duration good_busy = front_end_->server_busy_good();
  const Duration bad_busy = front_end_->server_busy_bad();
  const Duration all_busy = front_end_->server_busy_total();
  if (all_busy > Duration::zero()) {
    r.server_time_good = good_busy.sec() / all_busy.sec();
    r.server_time_bad = bad_busy.sec() / all_busy.sec();
  }
  r.server_busy_fraction = all_busy.sec() / cfg_.duration.sec();

  // Per-group results.
  r.groups.resize(cfg_.groups.size());
  for (std::size_t gi = 0; gi < cfg_.groups.size(); ++gi) {
    r.groups[gi].label = cfg_.groups[gi].label;
    r.groups[gi].count = cfg_.groups[gi].count;
    r.groups[gi].cls = cfg_.groups[gi].workload.cls;
    r.groups[gi].strategy = cfg_.groups[gi].workload.strategy;
  }
  for (std::size_t gi = 0; gi < pools_.size(); ++gi) {
    GroupResult& g = r.groups[gi];
    const client::ClientPool& pool = *pools_[gi];
    for (std::uint32_t i = 0; i < pool.size(); ++i) {
      g.totals.merge(pool.stats(i));
      g.served_per_client.push_back(pool.stats(i).served);
    }
  }
  client::ClientStats good_totals;
  for (auto& g : r.groups) {
    if (r.served_total > 0) {
      g.allocation = static_cast<double>(g.totals.served) /
                     static_cast<double>(r.served_total);
    }
    if (g.cls == http::ClientClass::kGood) good_totals.merge(g.totals);
  }
  r.fraction_good_served = good_totals.fraction_served();

  if (downloader_ != nullptr) {
    r.collateral_latencies = downloader_->latencies();
    r.collateral_failures = downloader_->failures();
  }
  if (proxy_ != nullptr) {
    r.proxy_relayed_requests = proxy_->relayed_requests();
    r.proxy_payments_started = proxy_->payments_started();
  }
  return r;
}

namespace {

void hash_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
}

void hash_i64(std::uint64_t& h, std::int64_t v) {
  hash_u64(h, static_cast<std::uint64_t>(v));
}

void hash_double(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  hash_u64(h, bits);
}

void hash_samples(std::uint64_t& h, const stats::OnlineStats& s) {
  hash_u64(h, static_cast<std::uint64_t>(s.count()));
  hash_double(h, s.sum());
  if (s.count() > 0) {
    hash_double(h, s.min());
    hash_double(h, s.max());
  }
}

void hash_samples(std::uint64_t& h, const stats::SampleSet& s) { hash_samples(h, s.summary()); }

}  // namespace

std::uint64_t ExperimentResult::fingerprint() const {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  hash_u64(h, util::fnv1a(defense));
  hash_i64(h, served_total);
  hash_i64(h, served_good);
  hash_i64(h, served_bad);
  hash_double(h, allocation_good);
  hash_double(h, allocation_bad);
  hash_double(h, server_time_good);
  hash_double(h, server_time_bad);
  hash_double(h, fraction_good_served);
  hash_double(h, server_busy_fraction);
  hash_i64(h, thinner.requests_received);
  hash_i64(h, thinner.direct_admissions);
  hash_i64(h, thinner.auctions_held);
  hash_i64(h, thinner.channels_expired);
  hash_i64(h, thinner.busy_rejections);
  hash_i64(h, thinner.payment_bytes_total);
  hash_i64(h, thinner.payment_bytes_wasted);
  hash_samples(h, thinner.price_good);
  hash_samples(h, thinner.price_bad);
  hash_samples(h, thinner.payment_time_good);
  hash_samples(h, thinner.payment_time_bad);
  hash_samples(h, thinner.retries_good);
  hash_samples(h, thinner.retries_bad);
  for (const auto& [name, value] : thinner.counters.all()) {
    hash_u64(h, util::fnv1a(name));
    hash_i64(h, value);
  }
  for (const GroupResult& g : groups) {
    hash_u64(h, util::fnv1a(g.label));
    hash_i64(h, g.count);
    hash_u64(h, util::fnv1a(g.strategy));
    hash_i64(h, g.totals.arrivals);
    hash_i64(h, g.totals.started);
    hash_i64(h, g.totals.served);
    hash_i64(h, g.totals.denied);
    hash_i64(h, g.totals.busy_rejected);
    hash_i64(h, g.totals.retries_sent);
    hash_i64(h, g.totals.payments_declined);
    hash_i64(h, g.totals.payments_abandoned);
    hash_i64(h, g.totals.payment_bytes_acked);
    hash_samples(h, g.totals.response_time);
    hash_double(h, g.allocation);
    for (const std::int64_t s : g.served_per_client) hash_i64(h, s);
  }
  hash_samples(h, collateral_latencies);
  hash_i64(h, collateral_failures);
  hash_i64(h, proxy_relayed_requests);
  hash_i64(h, proxy_payments_started);
  hash_i64(h, sim_duration.ns());
  hash_u64(h, events_executed);
  return h;
}

std::int64_t ExperimentResult::attacker_bytes() const {
  std::int64_t bytes = 0;
  for (const GroupResult& g : groups) {
    if (g.cls != http::ClientClass::kBad) continue;
    bytes += g.totals.payment_bytes_acked;
    bytes += static_cast<std::int64_t>(http::kMessageHeaderBytes) *
             (g.totals.started + g.totals.retries_sent);
  }
  return bytes;
}

ExperimentResult run_scenario(const ScenarioConfig& cfg) {
  Experiment e(cfg);
  return e.run();
}

}  // namespace speakup::exp
