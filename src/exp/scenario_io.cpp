#include "exp/scenario_io.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>
#include <tuple>

#include "client/strategy.hpp"
#include "core/auction_game.hpp"
#include "core/front_end_factory.hpp"
#include "exp/report.hpp"
#include "util/json.hpp"

namespace speakup::exp {

namespace json = util::json;

namespace {

[[noreturn]] void fail(const std::string& ctx, const std::string& what) {
  throw ScenarioError(ctx + ": " + what);
}

[[noreturn]] void wrong_type(const std::string& ctx, const char* wanted,
                             const json::Value& v) {
  fail(ctx, std::string("expected ") + wanted + ", got " + json::type_name(v.type()));
}

double num_of(const json::Value& v, const std::string& ctx) {
  if (!v.is_number()) wrong_type(ctx, "number", v);
  return v.as_number();
}

double positive_num(const json::Value& v, const std::string& ctx) {
  const double d = num_of(v, ctx);
  if (d <= 0) fail(ctx, "must be > 0 (got " + json::number_to_string(d) + ")");
  return d;
}

double nonneg_num(const json::Value& v, const std::string& ctx) {
  const double d = num_of(v, ctx);
  if (d < 0) fail(ctx, "must be >= 0 (got " + json::number_to_string(d) + ")");
  return d;
}

std::int64_t int_of(const json::Value& v, const std::string& ctx) {
  if (!v.is_number()) wrong_type(ctx, "integer", v);
  try {
    return v.as_int();
  } catch (const json::Error&) {
    const double d = v.as_number();
    fail(ctx, std::string(std::floor(d) == d ? "must lie within int64" : "must be an integer") +
                  " (got " + json::number_to_string(d) + ")");
  }
}

std::int64_t nonneg_int(const json::Value& v, const std::string& ctx) {
  const std::int64_t i = int_of(v, ctx);
  if (i < 0) fail(ctx, "must be >= 0 (got " + std::to_string(i) + ")");
  return i;
}

std::int64_t positive_int(const json::Value& v, const std::string& ctx) {
  const std::int64_t i = int_of(v, ctx);
  if (i <= 0) fail(ctx, "must be > 0 (got " + std::to_string(i) + ")");
  return i;
}

/// Seeds stay below 2^53: JSON numbers are doubles, so a larger integer
/// may already have been rounded to a neighbour, and a row would run (and
/// be labeled with) a seed the file did not write.
constexpr std::uint64_t kSeedLimit = std::uint64_t{1} << 53;

/// A seed: an integer in [0, 2^53).
std::uint64_t seed_of(const json::Value& v, const std::string& ctx) {
  const auto seed = static_cast<std::uint64_t>(nonneg_int(v, ctx));
  if (seed >= kSeedLimit) {
    fail(ctx, "must be < 2^53 = " + std::to_string(kSeedLimit) +
                  " (got " + std::to_string(seed) + "); past it a JSON number skips integers");
  }
  return seed;
}

/// A link rate in Mbit/s. Bandwidth holds integer bits per second, so a
/// value that rounds to 0 bit/s or past INT64_MAX would reach the link
/// model as a rate it cannot serialize at: refuse both, naming the key.
Bandwidth link_rate(const json::Value& v, const std::string& ctx) {
  const double mbps = positive_num(v, ctx);
  const double bps = mbps * 1e6 + 0.5;  // Bandwidth::mbps's rounding
  if (bps < 1.0) {
    fail(ctx, "rounds to 0 bit/s (got " + json::number_to_string(mbps) +
                  " Mbit/s); a link needs at least 1 bit/s");
  }
  if (!(bps < 0x1p63)) {
    fail(ctx, "overflows int64 bit/s (got " + json::number_to_string(mbps) +
                  " Mbit/s); rates must stay below 9.2e12 Mbit/s");
  }
  return Bandwidth::mbps(mbps);
}

/// A link delay in microseconds; its nanoseconds must fit in int64.
Duration link_delay(const json::Value& v, const std::string& ctx) {
  constexpr std::int64_t kMaxMicros = std::numeric_limits<std::int64_t>::max() / 1000;
  const std::int64_t us = nonneg_int(v, ctx);
  if (us > kMaxMicros) {
    fail(ctx, "must be <= " + std::to_string(kMaxMicros) + " (got " + std::to_string(us) +
                  ", whose nanoseconds overflow int64)");
  }
  return Duration::micros(us);
}

/// A duration in seconds. Duration holds int64 nanoseconds, so a value
/// whose nanoseconds reach 2^63 would wrap, and a `positive` one that rounds
/// to 0 ns would reach the model as zero: refuse both, naming the key.
Duration seconds_key(const json::Value& v, const std::string& ctx, bool positive) {
  const double s = positive ? positive_num(v, ctx) : nonneg_num(v, ctx);
  const double ns = s * 1e9 + 0.5;  // Duration::seconds's rounding
  if (!(ns < 0x1p63)) {
    fail(ctx, "overflows int64 nanoseconds (got " + json::number_to_string(s) +
                  " s); durations must stay below 9.2e9 s");
  }
  if (positive && ns < 1.0) {
    fail(ctx, "rounds to 0 ns (got " + json::number_to_string(s) +
                  " s); it must be at least 5e-10 s");
  }
  return Duration::seconds(s);
}

/// An integer bound for an `int` field: values past INT_MAX fail naming the
/// key instead of wrapping.
int narrow(std::int64_t i, const std::string& ctx) {
  if (i > std::numeric_limits<int>::max()) {
    fail(ctx, "must be <= " + std::to_string(std::numeric_limits<int>::max()) + " (got " +
                  std::to_string(i) + ")");
  }
  return static_cast<int>(i);
}

const std::string& str_of(const json::Value& v, const std::string& ctx) {
  if (!v.is_string()) wrong_type(ctx, "string", v);
  return v.as_string();
}

bool bool_of(const json::Value& v, const std::string& ctx) {
  if (!v.is_bool()) wrong_type(ctx, "bool", v);
  return v.as_bool();
}

const json::Value::Object& obj_of(const json::Value& v, const std::string& ctx) {
  if (!v.is_object()) wrong_type(ctx, "object", v);
  return v.as_object();
}

const json::Value::Array& arr_of(const json::Value& v, const std::string& ctx) {
  if (!v.is_array()) wrong_type(ctx, "array", v);
  return v.as_array();
}

bool is_scalar(const json::Value& v) {
  return v.is_string() || v.is_number() || v.is_bool();
}

std::string scalar_to_string(const json::Value& v) {
  if (v.is_string()) return v.as_string();
  if (v.is_number()) return json::number_to_string(v.as_number());
  if (v.is_bool()) return v.as_bool() ? "true" : "false";
  return v.dump();
}

// ---------------------------------------------------------------------------
// Dotted-path access into a scenario JSON object ("lan.good",
// "bottleneck.rate_mbps", "groups.1.workload.window") — the address space of
// grid axes and label placeholders. An all-digit segment indexes into an
// array, so grids can sweep per-group knobs.
// ---------------------------------------------------------------------------

/// An all-digit segment's index; nullopt for any other segment and for one
/// past size_t, which would otherwise wrap onto a real element.
std::optional<std::size_t> as_array_index(std::string_view seg) {
  if (seg.empty()) return std::nullopt;
  std::size_t idx = 0;
  for (const char c : seg) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::size_t>(c - '0');
    if (idx > (std::numeric_limits<std::size_t>::max() - digit) / 10) return std::nullopt;
    idx = idx * 10 + digit;
  }
  return idx;
}

const json::Value* get_path(const json::Value& root, std::string_view path) {
  const json::Value* cur = &root;
  std::size_t start = 0;
  while (true) {
    const std::size_t dot = path.find('.', start);
    const std::string_view seg =
        path.substr(start, dot == std::string_view::npos ? dot : dot - start);
    if (cur->is_array()) {
      const auto idx = as_array_index(seg);
      cur = idx.has_value() && *idx < cur->as_array().size() ? &cur->as_array()[*idx]
                                                            : nullptr;
    } else {
      cur = cur->find(seg);
    }
    if (cur == nullptr || dot == std::string_view::npos) return cur;
    start = dot + 1;
  }
}

void set_path(json::Value& root, std::string_view path, const json::Value& v,
              const std::string& ctx) {
  json::Value* cur = &root;
  std::size_t start = 0;
  while (true) {
    const std::size_t dot = path.find('.', start);
    const std::string seg(
        path.substr(start, dot == std::string_view::npos ? dot : dot - start));
    if (seg.empty()) fail(ctx, "bad grid axis path \"" + std::string(path) + "\"");
    if (cur->is_array()) {
      // Array elements must already exist: a grid can overwrite a group's
      // knob but cannot invent a group.
      const auto idx = as_array_index(seg);
      if (!idx.has_value() || *idx >= cur->as_array().size()) {
        fail(ctx, "grid axis \"" + std::string(path) + "\": \"" + seg +
                      "\" does not index the array (size " +
                      std::to_string(cur->as_array().size()) + ")");
      }
      json::Value* child = &cur->as_array()[*idx];
      if (dot == std::string_view::npos) {
        *child = v;
        return;
      }
      cur = child;
      start = dot + 1;
      continue;
    }
    if (dot == std::string_view::npos) {
      cur->set(seg, v);
      return;
    }
    json::Value* child = cur->find(seg);
    if (child == nullptr) {
      cur->set(seg, json::Value(json::Value::Object{}));
      child = cur->find(seg);
    }
    if (!child->is_object() && !child->is_array()) {
      fail(ctx, "grid axis \"" + std::string(path) + "\": \"" + seg +
                    "\" is not an object or array");
    }
    cur = child;
    start = dot + 1;
  }
}

/// Deep merge: `over` wins; nested objects merge key-wise.
json::Value merge(const json::Value& base, const json::Value& over) {
  if (!base.is_object() || !over.is_object()) return over;
  json::Value out = base;
  for (const auto& [k, v] : over.as_object()) {
    const json::Value* b = out.find(k);
    out.set(k, (b != nullptr && b->is_object() && v.is_object()) ? merge(*b, v) : v);
  }
  return out;
}

// ---------------------------------------------------------------------------
// JSON -> ScenarioConfig.
// ---------------------------------------------------------------------------

client::WorkloadParams workload_preset(const std::string& name, const std::string& ctx) {
  if (name == "good") return client::good_client_params();
  if (name == "bad") return client::bad_client_params();
  fail(ctx, "unknown workload preset \"" + name + "\" (expected \"good\" or \"bad\")");
}

http::ClientClass client_class(const std::string& name, const std::string& ctx) {
  if (name == "good") return http::ClientClass::kGood;
  if (name == "bad") return http::ClientClass::kBad;
  if (name == "neutral") return http::ClientClass::kNeutral;
  fail(ctx, "unknown client class \"" + name +
                "\" (expected \"good\", \"bad\", or \"neutral\")");
}

client::WorkloadParams workload_from_json(const json::Value& v, const std::string& ctx) {
  if (v.is_string()) return workload_preset(v.as_string(), ctx);
  obj_of(v, ctx);
  // The preset (default "good") seeds every field; explicit keys override.
  client::WorkloadParams p = client::good_client_params();
  if (const json::Value* preset = v.find("preset")) {
    p = workload_preset(str_of(*preset, ctx + ".preset"), ctx + ".preset");
  }
  for (const auto& [key, val] : v.as_object()) {
    const std::string kctx = ctx + "." + key;
    if (key == "preset") {
      // handled above
    } else if (key == "lambda") {
      p.lambda = positive_num(val, kctx);
    } else if (key == "window") {
      p.window = narrow(positive_int(val, kctx), kctx);
    } else if (key == "class") {
      p.cls = client_class(str_of(val, kctx), kctx);
    } else if (key == "difficulty") {
      p.difficulty = narrow(positive_int(val, kctx), kctx);
    } else if (key == "post_size_bytes") {
      p.post_size = nonneg_int(val, kctx);
    } else if (key == "request_timeout_s") {
      p.request_timeout = seconds_key(val, kctx, /*positive=*/true);
    } else if (key == "backlog_timeout_s") {
      p.backlog_timeout = seconds_key(val, kctx, /*positive=*/true);
    } else if (key == "retry_pipeline") {
      p.retry_pipeline = narrow(positive_int(val, kctx), kctx);
    } else if (key == "strategy") {
      const std::string& name = str_of(val, kctx);
      try {
        p.strategy = resolve_strategy_name(name);
      } catch (const std::invalid_argument& e) {
        fail(kctx, e.what());
      }
    } else if (key == "strategy_params") {
      p.strategy_knobs.clear();
      for (const auto& [pk, pv] : obj_of(val, kctx)) {
        p.strategy_knobs.emplace_back(pk, num_of(pv, kctx + "." + pk));
      }
    } else {
      fail(ctx, "unknown key \"" + key + "\"");
    }
  }
  // Construct the strategy once, discarded: an unknown knob (or a bad knob
  // value) fails at parse time with the strategy's own message, the same
  // contract resolve_defense_name gives the "defense" key.
  try {
    (void)client::StrategyFactory::instance().create(p.strategy,
                                                     client::strategy_params(p));
  } catch (const std::invalid_argument& e) {
    fail(ctx, e.what());
  }
  return p;
}

ClientGroupSpec group_from_json(const json::Value& v, const std::string& ctx) {
  obj_of(v, ctx);
  ClientGroupSpec g;
  bool have_count = false;
  for (const auto& [key, val] : v.as_object()) {
    const std::string kctx = ctx + "." + key;
    if (key == "label") {
      g.label = str_of(val, kctx);
    } else if (key == "count") {
      g.count = narrow(nonneg_int(val, kctx), kctx);
      have_count = true;
    } else if (key == "workload") {
      g.workload = workload_from_json(val, kctx);
    } else if (key == "access_bw_mbps") {
      g.access_bw = link_rate(val, kctx);
    } else if (key == "access_delay_us") {
      g.access_delay = link_delay(val, kctx);
    } else if (key == "access_queue_bytes") {
      g.access_queue = positive_int(val, kctx);
    } else if (key == "behind_bottleneck") {
      g.behind_bottleneck = bool_of(val, kctx);
    } else if (key == "via_proxy") {
      g.via_proxy = bool_of(val, kctx);
    } else if (key == "engine") {
      // Retired: every group runs on client::ClientPool. Files written for
      // the former "object" / "pooled" engine choice still load.
      const std::string& engine = str_of(val, kctx);
      if (engine != "object" && engine != "pooled") {
        fail(kctx, "engine must be \"object\" or \"pooled\", got \"" + engine + "\"");
      }
    } else {
      fail(ctx, "unknown key \"" + key + "\"");
    }
  }
  if (g.label.empty()) fail(ctx, "group needs a non-empty \"label\"");
  if (!have_count) fail(ctx, "group needs a \"count\"");
  return g;
}

void lan_from_json(ScenarioConfig& cfg, const json::Value& v, const std::string& ctx) {
  obj_of(v, ctx);
  std::int64_t good = 0, bad = 0, total = -1;
  bool have_bad = false;
  for (const auto& [key, val] : v.as_object()) {
    const std::string kctx = ctx + "." + key;
    if (key == "good") {
      good = narrow(nonneg_int(val, kctx), kctx);
    } else if (key == "bad") {
      bad = narrow(nonneg_int(val, kctx), kctx);
      have_bad = true;
    } else if (key == "total") {
      total = narrow(positive_int(val, kctx), kctx);
    } else {
      fail(ctx, "unknown key \"" + key + "\"");
    }
  }
  if (total >= 0) {
    if (have_bad) fail(ctx, "give either \"bad\" or \"total\", not both");
    if (good > total) {
      fail(ctx, "\"good\" (" + std::to_string(good) + ") exceeds \"total\" (" +
                    std::to_string(total) + ")");
    }
    bad = total - good;
  }
  const ScenarioConfig populated =
      lan_scenario(static_cast<int>(good), static_cast<int>(bad), cfg.capacity_rps,
                   cfg.defense, cfg.seed);
  cfg.groups = populated.groups;
}

void link_spec_from_json(const json::Value& v, const std::string& ctx,
                         const char* rate_key, Bandwidth& rate, Duration& delay,
                         Bytes& queue) {
  obj_of(v, ctx);
  for (const auto& [key, val] : v.as_object()) {
    const std::string kctx = ctx + "." + key;
    if (key == rate_key) {
      rate = link_rate(val, kctx);
    } else if (key == "delay_us") {
      delay = link_delay(val, kctx);
    } else if (key == "queue_bytes") {
      queue = positive_int(val, kctx);
    } else {
      fail(ctx, "unknown key \"" + key + "\"");
    }
  }
}

void collateral_from_json(CollateralSpec& c, const json::Value& v, const std::string& ctx) {
  obj_of(v, ctx);
  for (const auto& [key, val] : v.as_object()) {
    const std::string kctx = ctx + "." + key;
    if (key == "file_size_bytes") {
      c.file_size = positive_int(val, kctx);
    } else if (key == "downloads") {
      c.downloads = narrow(positive_int(val, kctx), kctx);
    } else if (key == "access_bw_mbps") {
      c.access_bw = link_rate(val, kctx);
    } else if (key == "access_delay_us") {
      c.access_delay = link_delay(val, kctx);
    } else if (key == "behind_bottleneck") {
      c.behind_bottleneck = bool_of(val, kctx);
    } else if (key == "start_delay_s") {
      c.start_delay = seconds_key(val, kctx, /*positive=*/false);
    } else {
      fail(ctx, "unknown key \"" + key + "\"");
    }
  }
}

ScenarioConfig config_from_json(const json::Value& v, const std::string& ctx) {
  obj_of(v, ctx);
  ScenarioConfig cfg;
  const json::Value* lan = nullptr;
  bool have_groups = false;
  for (const auto& [key, val] : v.as_object()) {
    const std::string kctx = ctx + "." + key;
    if (key == "defense") {
      try {
        cfg.defense = resolve_defense_name(str_of(val, kctx));
      } catch (const std::invalid_argument& e) {
        fail(kctx, e.what());
      }
    } else if (key == "capacity_rps") {
      cfg.capacity_rps = positive_num(val, kctx);
    } else if (key == "duration_s") {
      cfg.duration = seconds_key(val, kctx, /*positive=*/true);
    } else if (key == "seed") {
      cfg.seed = seed_of(val, kctx);
    } else if (key == "payment_window_s") {
      cfg.payment_window = seconds_key(val, kctx, /*positive=*/true);
    } else if (key == "quantum_s") {
      cfg.quantum = seconds_key(val, kctx, /*positive=*/false);
    } else if (key == "suspension_limit_s") {
      cfg.suspension_limit = seconds_key(val, kctx, /*positive=*/true);
    } else if (key == "response_body_bytes") {
      cfg.response_body = positive_int(val, kctx);
    } else if (key == "elastic_max_scale") {
      cfg.elastic_max_scale = num_of(val, kctx);
      if (cfg.elastic_max_scale < 1.0) fail(kctx, "must be >= 1");
    } else if (key == "elastic_interval_s") {
      cfg.elastic_interval = seconds_key(val, kctx, /*positive=*/true);
    } else if (key == "elastic_threshold") {
      cfg.elastic_threshold = num_of(val, kctx);
      if (cfg.elastic_threshold <= 0.0 || cfg.elastic_threshold > 1.0) {
        fail(kctx, "must be in (0, 1]");
      }
    } else if (key == "puzzle_cost_s") {
      cfg.puzzle_cost = seconds_key(val, kctx, /*positive=*/true);
    } else if (key == "thinner") {
      link_spec_from_json(val, kctx, "bw_mbps", cfg.thinner_bw, cfg.thinner_delay,
                          cfg.thinner_queue);
    } else if (key == "lan") {
      lan = &val;  // expanded below, once defense/capacity/seed are known
    } else if (key == "groups") {
      have_groups = true;
      int gi = 0;
      for (const json::Value& gv : arr_of(val, kctx)) {
        cfg.groups.push_back(
            group_from_json(gv, kctx + "[" + std::to_string(gi) + "]"));
        ++gi;
      }
    } else if (key == "bottleneck") {
      BottleneckSpec b;
      link_spec_from_json(val, kctx, "rate_mbps", b.rate, b.delay, b.queue);
      cfg.bottleneck = b;
    } else if (key == "collateral") {
      CollateralSpec c;
      collateral_from_json(c, val, kctx);
      cfg.collateral = c;
    } else if (key == "proxy") {
      ProxySpec p;
      link_spec_from_json(val, kctx, "uplink_mbps", p.uplink, p.delay, p.queue);
      cfg.proxy = p;
    } else {
      fail(ctx, "unknown key \"" + key + "\"");
    }
  }
  if (lan != nullptr) {
    if (have_groups) fail(ctx, "\"lan\" and \"groups\" are mutually exclusive");
    lan_from_json(cfg, *lan, ctx + ".lan");
  }
  return cfg;
}

// ---------------------------------------------------------------------------
// Label templates: "{defense}/g{lan.good}" resolved against the expanded
// scenario JSON (so grid-assigned values are visible).
// ---------------------------------------------------------------------------

std::string substitute_label(const std::string& tmpl, const json::Value& cfg,
                             const std::string& ctx) {
  std::string out;
  std::size_t i = 0;
  while (i < tmpl.size()) {
    const char c = tmpl[i];
    if (c != '{') {
      out.push_back(c);
      ++i;
      continue;
    }
    const std::size_t close = tmpl.find('}', i);
    if (close == std::string::npos) {
      fail(ctx + ".label", "unterminated '{' in template \"" + tmpl + "\"");
    }
    const std::string path = tmpl.substr(i + 1, close - i - 1);
    const json::Value* v = get_path(cfg, path);
    if (v == nullptr || !is_scalar(*v)) {
      fail(ctx + ".label", "placeholder {" + path + "} does not name a scalar "
                               "value in this scenario");
    }
    out += scalar_to_string(*v);
    i = close + 1;
  }
  return out;
}

struct GridAxis {
  std::string path;
  const json::Value::Array* values = nullptr;
};

std::vector<GridAxis> grid_axes(const json::Value& grid, const std::string& ctx) {
  std::vector<GridAxis> axes;
  for (const auto& [path, vals] : obj_of(grid, ctx)) {
    const std::string actx = ctx + "[\"" + path + "\"]";
    const json::Value::Array& arr = arr_of(vals, actx);
    if (arr.empty()) fail(actx, "grid axis must list at least one value");
    for (const json::Value& v : arr) {
      if (!is_scalar(v)) fail(actx, "grid axis values must be scalars");
    }
    axes.push_back(GridAxis{path, &arr});
  }
  return axes;
}

}  // namespace

std::string resolve_strategy_name(std::string_view name) {
  if (client::StrategyFactory::instance().contains(name)) return std::string(name);
  std::ostringstream os;
  os << "unknown strategy '" << name << "'; registered strategies:";
  for (const std::string& n : client::StrategyFactory::instance().names()) os << " " << n;
  throw std::invalid_argument(os.str());
}

std::string resolve_defense_name(std::string_view name) {
  if (core::FrontEndFactory::instance().contains(name)) return std::string(name);
  std::ostringstream os;
  os << "unknown defense '" << name << "'; registered defenses:";
  for (const std::string& n : core::FrontEndFactory::instance().names()) os << " " << n;
  throw std::invalid_argument(os.str());
}

ScenarioFile parse_scenario_file(std::string_view json_text) {
  json::Value doc;
  try {
    doc = json::parse(json_text);
  } catch (const json::Error& e) {
    throw ScenarioError(e.what());
  }
  if (!doc.is_object()) wrong_type("top level", "object", doc);

  ScenarioFile out;
  json::Value defaults{json::Value::Object{}};
  const json::Value* scenarios = nullptr;
  for (const auto& [key, val] : doc.as_object()) {
    if (key == "description") {
      out.description = str_of(val, "description");
    } else if (key == "report") {
      out.report = str_of(val, "report");
      if (!is_report_name(out.report)) {
        fail("report", "unknown report \"" + out.report + "\" (known: " + report_names() + ")");
      }
    } else if (key == "defaults") {
      for (const auto& [dk, unused] : obj_of(val, "defaults")) {
        (void)unused;
        if (dk == "label" || dk == "grid" || dk == "seeds") {
          fail("defaults", "\"" + dk + "\" is not allowed in defaults (it is "
                               "per-scenario)");
        }
      }
      defaults = val;
    } else if (key == "scenarios") {
      scenarios = &val;
    } else if (doc.find("kind") != nullptr) {
      throw ScenarioError(
          "an auction_game grid spec is not a scenario file (use `speakup report`)");
    } else if (doc.find("base") != nullptr) {
      throw ScenarioError(
          "a tournament spec is not a scenario file (use `speakup tournament`)");
    } else {
      fail("top level", "unknown key \"" + key + "\"");
    }
  }
  if (scenarios == nullptr) fail("top level", "missing \"scenarios\" array");
  const json::Value::Array& entries = arr_of(*scenarios, "scenarios");
  if (entries.empty()) fail("scenarios", "must list at least one scenario");

  std::size_t index = 0;
  for (std::size_t si = 0; si < entries.size(); ++si) {
    const std::string ctx = "scenarios[" + std::to_string(si) + "]";
    obj_of(entries[si], ctx);

    // Split the entry into expansion directives and config keys.
    std::string label_template;
    const json::Value* grid = nullptr;
    std::int64_t n_seeds = 1;
    json::Value config_json{json::Value::Object{}};
    for (const auto& [key, val] : entries[si].as_object()) {
      if (key == "label") {
        label_template = str_of(val, ctx + ".label");
      } else if (key == "grid") {
        grid = &val;
      } else if (key == "seeds") {
        n_seeds = positive_int(val, ctx + ".seeds");
      } else {
        config_json.set(key, val);
      }
    }
    // "lan" and "groups" are alternatives, not mergeable: an entry that
    // writes one replaces the other inherited from defaults (writing both
    // in the same entry is still the mutual-exclusion error below).
    const bool entry_has_lan = config_json.find("lan") != nullptr;
    const bool entry_has_groups = config_json.find("groups") != nullptr;
    config_json = merge(defaults, config_json);
    if (entry_has_groups && !entry_has_lan) config_json.erase("lan");
    if (entry_has_lan && !entry_has_groups) config_json.erase("groups");

    std::vector<GridAxis> axes;
    if (grid != nullptr) axes = grid_axes(*grid, ctx + ".grid");

    // Odometer over the cross product: the first axis is outermost, the
    // last cycles fastest; no grid means one combination.
    std::vector<std::size_t> pos(axes.size(), 0);
    while (true) {
      json::Value combo = config_json;
      for (std::size_t a = 0; a < axes.size(); ++a) {
        set_path(combo, axes[a].path, (*axes[a].values)[pos[a]], ctx + ".grid");
      }
      const json::Value* seed_v = combo.find("seed");
      const std::uint64_t base_seed =
          seed_v != nullptr ? seed_of(*seed_v, ctx + ".seed") : ScenarioConfig{}.seed;
      if (base_seed + static_cast<std::uint64_t>(n_seeds - 1) >= kSeedLimit) {
        fail(ctx + ".seeds", std::to_string(n_seeds) + " seeds from " +
                                 std::to_string(base_seed) + " reach 2^53 = " +
                                 std::to_string(kSeedLimit) +
                                 "; past it a JSON number skips integers");
      }
      for (std::int64_t k = 0; k < n_seeds; ++k) {
        json::Value expanded = combo;
        const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(k);
        expanded.set("seed", static_cast<double>(seed));
        LabeledScenario s;
        s.index = index++;
        s.config = config_from_json(expanded, ctx);
        if (!label_template.empty()) {
          s.label = substitute_label(label_template, expanded, ctx);
        } else {
          s.label = s.config.defense;
          for (std::size_t a = 0; a < axes.size(); ++a) {
            const std::size_t dot = axes[a].path.rfind('.');
            const std::string seg =
                dot == std::string::npos ? axes[a].path : axes[a].path.substr(dot + 1);
            s.label += "/" + seg + "=" + scalar_to_string((*axes[a].values)[pos[a]]);
          }
        }
        if (n_seeds > 1 && label_template.find("{seed}") == std::string::npos) {
          s.label += "/seed" + std::to_string(seed);
        }
        out.scenarios.push_back(std::move(s));
      }
      // Advance the odometer; a full wrap means the product is exhausted.
      bool wrapped = true;
      for (std::size_t a = axes.size(); a-- > 0;) {
        if (++pos[a] < axes[a].values->size()) {
          wrapped = false;
          break;
        }
        pos[a] = 0;
      }
      if (wrapped) break;
    }
  }

  // Sorting row indices by (label, index) finds every repeat in O(n log n);
  // the diagnostic names the earliest row whose label repeats later.
  const std::vector<LabeledScenario>& rows = out.scenarios;
  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&rows](std::size_t a, std::size_t b) {
    return std::tie(rows[a].label, a) < std::tie(rows[b].label, b);
  });
  std::size_t first_dup = rows.size();
  for (std::size_t k = 1; k < order.size(); ++k) {
    if (rows[order[k - 1]].label == rows[order[k]].label) {
      first_dup = std::min(first_dup, order[k - 1]);
    }
  }
  if (first_dup < rows.size()) {
    fail("scenarios", "duplicate label \"" + rows[first_dup].label +
                          "\" — give the colliding entries distinct \"label\" "
                          "templates");
  }
  return out;
}

std::string read_spec(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ScenarioError(path + ": cannot open file");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

ScenarioFile load_scenario_file(const std::string& path) {
  const std::string text = read_spec(path);
  try {
    return parse_scenario_file(text);
  } catch (const ScenarioError& e) {
    throw ScenarioError(path + ": " + e.what());
  }
}

std::string file_kind(const std::string& path) {
  json::Value doc;
  try {
    doc = json::parse(read_spec(path));
  } catch (const json::Error& e) {
    throw ScenarioError(path + ": " + e.what());
  }
  if (!doc.is_object()) return "scenarios";  // load_scenario_file says why
  if (const json::Value* kind = doc.find("kind")) {
    if (kind->is_string() && kind->as_string() == "auction_game") return "auction_game";
    const std::string got = kind->is_string() ? "\"" + kind->as_string() + "\""
                                              : json::type_name(kind->type());
    throw ScenarioError(path + ": kind: must be \"auction_game\" (got " + got + ")");
  }
  return doc.find("base") != nullptr ? "tournament" : "scenarios";
}

namespace {

/// The required member `key` of object `obj`, named `<prefix><key>` in
/// errors.
const json::Value& member(const json::Value& obj, const std::string& key,
                          const std::string& prefix = "") {
  const json::Value* v = obj.find(key);
  if (v == nullptr) fail(prefix + key, "missing");
  return *v;
}

std::string description_of(const json::Value& doc) {
  const json::Value* d = doc.find("description");
  return d != nullptr ? str_of(*d, "description") : std::string();
}

}  // namespace

AuctionGameSpec load_auction_game_file(const std::string& path) {
  if (file_kind(path) != "auction_game") {
    throw ScenarioError(path + ": kind: must be \"auction_game\"");
  }
  try {
    const json::Value doc = json::parse(read_spec(path));
    AuctionGameSpec spec;
    spec.description = description_of(doc);
    spec.seed = seed_of(member(doc, "seed"), "seed");
    spec.stream = str_of(member(doc, "stream"), "stream");
    const auto ticks = [&doc](const std::string& key) {
      return narrow(positive_int(member(doc, key), key), key);
    };
    spec.ticks_quick = ticks("ticks_quick");
    spec.ticks_full = ticks("ticks_full");
    const json::Value& grid = member(doc, "grid");
    obj_of(grid, "grid");
    // Each axis value must pass `in_range`; Theorem 3.1's jitter bound holds
    // for delta in [0, 0.5].
    const auto axis = [&grid](const std::string& key, const char* range, auto in_range) {
      const std::string ctx = "grid." + key;
      const json::Value::Array& values = arr_of(member(grid, key, "grid."), ctx);
      if (values.empty()) fail(ctx, "must list at least one value");
      std::vector<double> out;
      for (const json::Value& v : values) {
        const double d = num_of(v, ctx);
        if (!in_range(d)) {
          fail(ctx, std::string("values must lie in ") + range + " (got " +
                        json::number_to_string(d) + ")");
        }
        out.push_back(d);
      }
      return out;
    };
    spec.eps = axis("eps", "(0, 1)", [](double e) { return e > 0.0 && e < 1.0; });
    spec.delta = axis("delta", "[0, 0.5]", [](double d) { return d >= 0.0 && d <= 0.5; });
    const json::Value::Array& names =
        arr_of(member(grid, "adversary", "grid."), "grid.adversary");
    if (names.empty()) fail("grid.adversary", "must list at least one adversary");
    for (const json::Value& v : names) {
      const std::string& name = str_of(v, "grid.adversary");
      try {
        static_cast<void>(core::adversary_fn(name));
      } catch (const std::invalid_argument& e) {
        fail("grid.adversary", e.what());
      }
      spec.adversaries.push_back(name);
    }
    return spec;
  } catch (const ScenarioError& e) {
    throw ScenarioError(path + ": " + e.what());
  }
}

std::vector<LabeledScenario> ScenarioFile::shard(int index, int count) const {
  if (count < 1 || index < 0 || index >= count) {
    throw ScenarioError("shard " + std::to_string(index) + "/" + std::to_string(count) +
                        " is invalid (need 0 <= index < count)");
  }
  std::vector<LabeledScenario> out;
  for (const LabeledScenario& s : scenarios) {
    if (s.index % static_cast<std::size_t>(count) == static_cast<std::size_t>(index)) {
      out.push_back(s);
    }
  }
  return out;
}

void ScenarioFile::queue_on(Runner& runner) const { queue_on(runner, scenarios); }

void ScenarioFile::queue_on(Runner& runner, const std::vector<LabeledScenario>& slice) {
  for (const LabeledScenario& s : slice) runner.add(s.config, s.label);
}

}  // namespace speakup::exp
