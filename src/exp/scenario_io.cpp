#include "exp/scenario_io.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <type_traits>
#include <variant>

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

std::string got(double d, const char* unit = "") {
  return " (got " + json::number_to_string(d) + unit + ")";
}

double num_of(const json::Value& v, const std::string& ctx) {
  if (!v.is_number()) wrong_type(ctx, "number", v);
  return v.as_number();
}

const std::string& str_of(const json::Value& v, const std::string& ctx) {
  if (!v.is_string()) wrong_type(ctx, "string", v);
  return v.as_string();
}

const json::Value::Object& obj_of(const json::Value& v, const std::string& ctx) {
  if (!v.is_object()) wrong_type(ctx, "object", v);
  return v.as_object();
}

const json::Value::Array& arr_of(const json::Value& v, const std::string& ctx) {
  if (!v.is_array()) wrong_type(ctx, "array", v);
  return v.as_array();
}

/// A number for which `ok` holds; otherwise fails "must be <rule>".
double num_where(const json::Value& v, const std::string& ctx, bool ok(double),
                 const char* rule) {
  const double d = num_of(v, ctx);
  if (!ok(d)) fail(ctx, std::string("must be ") + rule + got(d));
  return d;
}

bool positive(double d) { return d > 0; }
bool nonnegative(double d) { return d >= 0; }

/// An integer in [lo, hi], lo being 0 or 1.
std::int64_t int_in(const json::Value& v, const std::string& ctx, std::int64_t lo,
                    std::int64_t hi, const char* past_hi = "") {
  if (!v.is_number()) wrong_type(ctx, "integer", v);
  const double d = v.as_number();
  if (std::floor(d) != d) fail(ctx, "must be an integer" + got(d));
  if (!(d >= -0x1p63 && d < 0x1p63)) fail(ctx, "must lie within int64" + got(d));
  const auto i = static_cast<std::int64_t>(d);
  const std::string was = " (got " + std::to_string(i);
  if (i < lo) fail(ctx, (lo > 0 ? "must be > 0" : "must be >= 0") + was + ")");
  if (i > hi) fail(ctx, "must be <= " + std::to_string(hi) + was + past_hi + ")");
  return i;
}

constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

/// Seeds stay below 2^53: JSON numbers are doubles, so a larger integer
/// may already have been rounded to a neighbour, and a row would run (and
/// be labeled with) a seed the file did not write.
constexpr std::uint64_t kSeedLimit = std::uint64_t{1} << 53;

/// The value of `v` as `kind` states it: JSON type, range and unit, each
/// failure naming `ctx`. One alternative per type a table row stores.
std::variant<double, int, std::int64_t, std::uint64_t, bool, std::string, Duration, Bandwidth>
parse_value(KeyKind kind, const json::Value& v, const std::string& ctx) {
  switch (kind) {
    case KeyKind::kString: return str_of(v, ctx);
    case KeyKind::kBool:
      if (!v.is_bool()) wrong_type(ctx, "bool", v);
      return v.as_bool();
    case KeyKind::kNumber: return num_where(v, ctx, positive, "> 0");
    case KeyKind::kRate: {
      // Past 2e9 every arrival gap rounds to 0 ns: the clock would stand
      // still while the backlog grows without bound.
      const double rate = num_where(v, ctx, positive, "> 0");
      if (rate > 2e9) {
        fail(ctx, "must be <= 2e9" + got(rate) + "; a mean gap under 5e-10 s rounds to 0 ns");
      }
      return rate;
    }
    case KeyKind::kScale: return num_where(v, ctx, [](double d) { return d >= 1; }, ">= 1");
    case KeyKind::kFraction:
      return num_where(v, ctx, [](double d) { return d > 0 && d <= 1; }, "in (0, 1]");
    case KeyKind::kInt: return static_cast<int>(int_in(v, ctx, 0, kIntMax));
    case KeyKind::kPositiveInt: return static_cast<int>(int_in(v, ctx, 1, kIntMax));
    case KeyKind::kInt64: return int_in(v, ctx, 0, kInt64Max);
    case KeyKind::kPositiveInt64: return int_in(v, ctx, 1, kInt64Max);
    case KeyKind::kRowCount: return static_cast<int>(int_in(v, ctx, 1, kMaxScenarioRows));
    case KeyKind::kSeconds:
    case KeyKind::kSecondsOrZero: {
      const bool must_be_positive = kind == KeyKind::kSeconds;
      const double s = must_be_positive ? num_where(v, ctx, positive, "> 0")
                                        : num_where(v, ctx, nonnegative, ">= 0");
      const double ns = s * 1e9 + 0.5;  // Duration::seconds's rounding
      if (!(ns < 0x1p63)) {
        fail(ctx, "overflows int64 nanoseconds" + got(s, " s") +
                      "; durations must stay below 9.2e9 s");
      }
      if (must_be_positive && ns < 1.0) {
        fail(ctx, "rounds to 0 ns" + got(s, " s") + "; it must be at least 5e-10 s");
      }
      return Duration::seconds(s);
    }
    case KeyKind::kMbps: {
      const double mbps = num_where(v, ctx, positive, "> 0");
      const double bps = mbps * 1e6 + 0.5;  // Bandwidth::mbps's rounding
      if (bps < 1.0) {
        fail(ctx, "rounds to 0 bit/s" + got(mbps, " Mbit/s") + "; a link needs at least 1 bit/s");
      }
      if (!(bps < 0x1p63)) {
        fail(ctx, "overflows int64 bit/s" + got(mbps, " Mbit/s") +
                      "; rates must stay below 9.2e12 Mbit/s");
      }
      return Bandwidth::mbps(mbps);
    }
    case KeyKind::kMicros:
      return Duration::micros(
          int_in(v, ctx, 0, kInt64Max / 1000, ", whose nanoseconds overflow int64"));
    case KeyKind::kSeed: {
      const auto seed = static_cast<std::uint64_t>(int_in(v, ctx, 0, kInt64Max));
      if (seed >= kSeedLimit) {
        fail(ctx, "must be < 2^53 = " + std::to_string(kSeedLimit) + " (got " +
                      std::to_string(seed) + "); past it a JSON number skips integers");
      }
      return seed;
    }
    case KeyKind::kCode: break;
  }
  throw std::logic_error(ctx + ": a kCode key has no value kind");
}

template <class M>
M value_of(KeyKind kind, const json::Value& v, const std::string& ctx) {
  return std::get<M>(parse_value(kind, v, ctx));
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
  for (std::size_t start = 0, dot = 0; cur != nullptr && dot != std::string_view::npos;
       start = dot + 1) {
    dot = path.find('.', start);
    const std::string_view seg = path.substr(start, dot - start);  // to the end past the last dot
    if (cur->is_array()) {
      const auto idx = as_array_index(seg);
      cur = idx.has_value() && *idx < cur->as_array().size() ? &cur->as_array()[*idx] : nullptr;
    } else {
      cur = cur->find(seg);
    }
  }
  return cur;
}

void set_path(json::Value& root, std::string_view path, const json::Value& v,
              const std::string& ctx) {
  const std::string axis = "grid axis \"" + std::string(path) + "\": \"";
  json::Value* cur = &root;
  for (std::size_t start = 0, dot = 0; dot != std::string_view::npos; start = dot + 1) {
    dot = path.find('.', start);
    const bool last = dot == std::string_view::npos;
    const std::string seg(path.substr(start, dot - start));
    if (seg.empty()) fail(ctx, "bad grid axis path \"" + std::string(path) + "\"");
    if (cur->is_array()) {
      // Array elements must already exist: a grid can overwrite a group's
      // knob but cannot invent a group.
      const auto idx = as_array_index(seg);
      if (!idx.has_value() || *idx >= cur->as_array().size()) {
        fail(ctx, axis + seg + "\" does not index the array (size " +
                      std::to_string(cur->as_array().size()) + ")");
      }
      cur = &cur->as_array()[*idx];
      if (last) *cur = v;
    } else if (last) {
      cur->set(seg, v);
    } else {
      if (cur->find(seg) == nullptr) cur->set(seg, json::Value(json::Value::Object{}));
      cur = cur->find(seg);
    }
    if (!last && !cur->is_object() && !cur->is_array()) {
      fail(ctx, axis + seg + "\" is not an object or array");
    }
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
// JSON -> ScenarioConfig: one table of {key, kind, field} rows per object.
// A value row parses its key by its kind into its field; a kCode row runs
// the code it carries (registry lookups, enums, nested objects).
// ---------------------------------------------------------------------------

template <class T>
using Code = void (*)(T&, const json::Value&, const std::string& ctx);

template <class T>
struct Row {
  std::string_view key;
  KeyKind kind;
  std::variant<Code<T>, double T::*, int T::*, std::int64_t T::*, std::uint64_t T::*, bool T::*,
               std::string T::*, Duration T::*, Bandwidth T::*>
      field;

  template <class M>
  constexpr Row(std::string_view k, KeyKind kd, M T::*member) : key(k), kind(kd), field(member) {}
  constexpr Row(std::string_view k, Code<T> code) : key(k), kind(KeyKind::kCode), field(code) {}
};

/// Parses object `v`, named `ctx` ("" at the root), into `out`: each key by
/// its row of `rows`. A key without a row goes to `other`, or fails as
/// unknown when there is no `other`.
template <class T, std::size_t N>
void parse_object(const json::Value& v, const std::string& ctx, const Row<T> (&rows)[N], T& out,
                  const std::function<void(const std::string&, const json::Value&)>& other = {}) {
  for (const auto& [key, val] : obj_of(v, ctx)) {
    const Row<T>* row = std::ranges::find(rows, key, &Row<T>::key);
    if (row == std::end(rows)) {
      if (!other) fail(ctx, "unknown key \"" + key + "\"");
      other(key, val);
      continue;
    }
    const std::string kctx = ctx.empty() ? key : ctx + "." + key;
    std::visit(
        [&](auto field) {
          if constexpr (std::is_same_v<decltype(field), Code<T>>) {
            field(out, val, kctx);
          } else {
            using M = std::remove_reference_t<decltype(out.*field)>;
            out.*field = value_of<M>(row->kind, val, kctx);
          }
        },
        row->field);
  }
}

/// A kCode row whose key is read elsewhere.
template <class T>
void read_elsewhere(T&, const json::Value&, const std::string&) {}

/// A registry name: `resolve` throws std::invalid_argument listing the
/// registered names.
std::string registered(std::string (*resolve)(std::string_view), const json::Value& v,
                       const std::string& ctx) {
  try {
    return resolve(str_of(v, ctx));
  } catch (const std::invalid_argument& e) {
    fail(ctx, e.what());
  }
}

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

using client::WorkloadParams;

constexpr Row<WorkloadParams> kWorkloadRows[] = {
    {"preset", read_elsewhere<WorkloadParams>},  // first: it seeds every other field
    {"lambda", KeyKind::kRate, &WorkloadParams::lambda},
    {"window", KeyKind::kPositiveInt, &WorkloadParams::window},
    {"class", [](auto& p, auto& v, auto& ctx) { p.cls = client_class(str_of(v, ctx), ctx); }},
    {"difficulty", KeyKind::kPositiveInt, &WorkloadParams::difficulty},
    {"post_size_bytes", KeyKind::kInt64, &WorkloadParams::post_size},
    {"request_timeout_s", KeyKind::kSeconds, &WorkloadParams::request_timeout},
    {"backlog_timeout_s", KeyKind::kSeconds, &WorkloadParams::backlog_timeout},
    {"retry_pipeline", KeyKind::kPositiveInt, &WorkloadParams::retry_pipeline},
    {"strategy",
     [](auto& p, auto& v, auto& ctx) { p.strategy = registered(resolve_strategy_name, v, ctx); }},
    {"strategy_params",
     [](auto& p, auto& v, auto& ctx) {
       p.strategy_knobs.clear();
       for (const auto& [pk, pv] : obj_of(v, ctx)) {
         p.strategy_knobs.emplace_back(pk, num_of(pv, ctx + "." + pk));
       }
     }},
};

WorkloadParams workload_from_json(const json::Value& v, const std::string& ctx) {
  if (v.is_string()) return workload_preset(v.as_string(), ctx);
  // The preset (default "good") seeds every field; explicit keys override.
  WorkloadParams p = client::good_client_params();
  if (const json::Value* preset = v.find("preset")) {
    p = workload_preset(str_of(*preset, ctx + ".preset"), ctx + ".preset");
  }
  parse_object(v, ctx, kWorkloadRows, p);
  // Construct the strategy once, discarded: an unknown knob (or a bad knob
  // value) fails at parse time with the strategy's own message, the same
  // contract resolve_defense_name gives the "defense" key.
  try {
    (void)client::StrategyFactory::instance().create(p.strategy, client::strategy_params(p));
  } catch (const std::invalid_argument& e) {
    fail(ctx, e.what());
  }
  return p;
}

constexpr Row<ClientGroupSpec> kGroupRows[] = {
    {"label", KeyKind::kString, &ClientGroupSpec::label},
    {"count", KeyKind::kInt, &ClientGroupSpec::count},
    {"workload", [](auto& g, auto& v, auto& ctx) { g.workload = workload_from_json(v, ctx); }},
    {"access_bw_mbps", KeyKind::kMbps, &ClientGroupSpec::access_bw},
    {"access_delay_us", KeyKind::kMicros, &ClientGroupSpec::access_delay},
    {"access_queue_bytes", KeyKind::kPositiveInt64, &ClientGroupSpec::access_queue},
    {"behind_bottleneck", KeyKind::kBool, &ClientGroupSpec::behind_bottleneck},
    {"via_proxy", KeyKind::kBool, &ClientGroupSpec::via_proxy},
    // Retired: every group runs on client::ClientPool. Files written for
    // the former "object" / "pooled" engine choice still load.
    {"engine",
     [](auto&, auto& v, auto& ctx) {
       const std::string& engine = str_of(v, ctx);
       if (engine != "object" && engine != "pooled") {
         fail(ctx, "engine must be \"object\" or \"pooled\", got \"" + engine + "\"");
       }
     }},
};

/// `lan`'s keys: `total`, when given, sets `bad` to total - good.
struct LanKeys {
  int good = 0;
  int bad = 0;
  int total = 0;
};

constexpr Row<LanKeys> kLanRows[] = {
    {"good", KeyKind::kInt, &LanKeys::good},
    {"bad", KeyKind::kInt, &LanKeys::bad},
    {"total", KeyKind::kPositiveInt, &LanKeys::total},
};

void lan_from_json(ScenarioConfig& cfg, const json::Value& v, const std::string& ctx) {
  LanKeys lan;
  parse_object(v, ctx, kLanRows, lan);
  if (v.find("total") != nullptr) {
    if (v.find("bad") != nullptr) fail(ctx, "give either \"bad\" or \"total\", not both");
    if (lan.good > lan.total) {
      fail(ctx, "\"good\" (" + std::to_string(lan.good) + ") exceeds \"total\" (" +
                    std::to_string(lan.total) + ")");
    }
    lan.bad = lan.total - lan.good;
  }
  cfg.groups = lan_scenario(lan.good, lan.bad, cfg.capacity_rps, cfg.defense, cfg.seed).groups;
}

constexpr Row<ScenarioConfig> kThinnerRows[] = {
    {"bw_mbps", KeyKind::kMbps, &ScenarioConfig::thinner_bw},
    {"delay_us", KeyKind::kMicros, &ScenarioConfig::thinner_delay},
    {"queue_bytes", KeyKind::kPositiveInt64, &ScenarioConfig::thinner_queue},
};

constexpr Row<BottleneckSpec> kBottleneckRows[] = {
    {"rate_mbps", KeyKind::kMbps, &BottleneckSpec::rate},
    {"delay_us", KeyKind::kMicros, &BottleneckSpec::delay},
    {"queue_bytes", KeyKind::kPositiveInt64, &BottleneckSpec::queue},
};

constexpr Row<ProxySpec> kProxyRows[] = {
    {"uplink_mbps", KeyKind::kMbps, &ProxySpec::uplink},
    {"delay_us", KeyKind::kMicros, &ProxySpec::delay},
    {"queue_bytes", KeyKind::kPositiveInt64, &ProxySpec::queue},
};

constexpr Row<CollateralSpec> kCollateralRows[] = {
    {"file_size_bytes", KeyKind::kPositiveInt64, &CollateralSpec::file_size},
    {"downloads", KeyKind::kPositiveInt, &CollateralSpec::downloads},
    {"access_bw_mbps", KeyKind::kMbps, &CollateralSpec::access_bw},
    {"access_delay_us", KeyKind::kMicros, &CollateralSpec::access_delay},
    {"behind_bottleneck", KeyKind::kBool, &CollateralSpec::behind_bottleneck},
    {"start_delay_s", KeyKind::kSecondsOrZero, &CollateralSpec::start_delay},
};

/// A kCode row for an optional block that its own table parses.
template <auto block, const auto& rows>
void optional_block(ScenarioConfig& c, const json::Value& v, const std::string& ctx) {
  parse_object(v, ctx, rows, (c.*block).emplace());
}

constexpr Row<ScenarioConfig> kScenarioRows[] = {
    {"defense",
     [](auto& c, auto& v, auto& ctx) { c.defense = registered(resolve_defense_name, v, ctx); }},
    {"capacity_rps", KeyKind::kNumber, &ScenarioConfig::capacity_rps},
    {"duration_s", KeyKind::kSeconds, &ScenarioConfig::duration},
    {"seed", KeyKind::kSeed, &ScenarioConfig::seed},
    {"lan", read_elsewhere<ScenarioConfig>},  // last, once defense/capacity/seed are known
    {"groups",
     [](auto& c, auto& v, auto& ctx) {
       const json::Value::Array& groups = arr_of(v, ctx);
       for (std::size_t i = 0; i < groups.size(); ++i) {
         const std::string gctx = ctx + "[" + std::to_string(i) + "]";
         ClientGroupSpec& g = c.groups.emplace_back();
         parse_object(groups[i], gctx, kGroupRows, g);
         if (g.label.empty()) fail(gctx, "group needs a non-empty \"label\"");
         if (groups[i].find("count") == nullptr) fail(gctx, "group needs a \"count\"");
       }
     }},
    {"bottleneck", optional_block<&ScenarioConfig::bottleneck, kBottleneckRows>},
    {"collateral", optional_block<&ScenarioConfig::collateral, kCollateralRows>},
    {"proxy", optional_block<&ScenarioConfig::proxy, kProxyRows>},
    {"payment_window_s", KeyKind::kSeconds, &ScenarioConfig::payment_window},
    {"quantum_s", KeyKind::kSecondsOrZero, &ScenarioConfig::quantum},
    {"suspension_limit_s", KeyKind::kSeconds, &ScenarioConfig::suspension_limit},
    {"response_body_bytes", KeyKind::kPositiveInt64, &ScenarioConfig::response_body},
    {"thinner", [](auto& c, auto& v, auto& ctx) { parse_object(v, ctx, kThinnerRows, c); }},
    {"elastic_max_scale", KeyKind::kScale, &ScenarioConfig::elastic_max_scale},
    {"elastic_interval_s", KeyKind::kSeconds, &ScenarioConfig::elastic_interval},
    {"elastic_threshold", KeyKind::kFraction, &ScenarioConfig::elastic_threshold},
    {"puzzle_cost_s", KeyKind::kSeconds, &ScenarioConfig::puzzle_cost},
};

ScenarioConfig config_from_json(const json::Value& v, const std::string& ctx) {
  ScenarioConfig cfg;
  parse_object(v, ctx, kScenarioRows, cfg);
  if (const json::Value* lan = v.find("lan")) {
    if (v.find("groups") != nullptr) fail(ctx, "\"lan\" and \"groups\" are mutually exclusive");
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
  for (std::size_t i = 0; i < tmpl.size();) {
    const std::size_t open = tmpl.find('{', i);
    out += tmpl.substr(i, open - i);  // to the end when no '{' is left
    if (open == std::string::npos) break;
    const std::size_t close = tmpl.find('}', open);
    if (close == std::string::npos) {
      fail(ctx + ".label", "unterminated '{' in template \"" + tmpl + "\"");
    }
    const std::string path = tmpl.substr(open + 1, close - open - 1);
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

/// Fails when an entry would bring a file of `rows` rows past
/// kMaxScenarioRows: its rows are the product of its axis lengths times
/// `seeds`, counted before any is built. Names the `seeds` key when the
/// grid alone fits, and otherwise the grid.
void check_row_cap(const std::vector<GridAxis>& axes, int seeds, std::size_t rows,
                   const std::string& ctx) {
  constexpr std::uint64_t kHuge = std::numeric_limits<std::uint64_t>::max();
  const auto times = [](std::uint64_t a, std::uint64_t b) {
    std::uint64_t product = 0;
    return __builtin_mul_overflow(a, b, &product) ? kHuge : product;
  };
  std::uint64_t points = 1;
  for (const GridAxis& a : axes) points = times(points, a.values->size());
  const std::uint64_t entry_rows = times(points, static_cast<std::uint64_t>(seeds));
  const std::uint64_t room = kMaxScenarioRows - rows;
  if (entry_rows <= room) return;
  const std::string count =
      entry_rows > kHuge - rows ? "2^64 or more" : std::to_string(rows + entry_rows);
  const char* key = seeds > 1 && points <= room ? ".seeds" : axes.empty() ? "" : ".grid";
  fail(ctx + key, "the file would expand to " + count + " rows, past the cap of " +
                      std::to_string(kMaxScenarioRows));
}

/// An entry's expansion directives; its other keys configure the scenario.
struct EntryKeys {
  std::string label;
  const json::Value* grid = nullptr;
  int seeds = 1;
};

constexpr Row<EntryKeys> kEntryRows[] = {
    {"label", KeyKind::kString, &EntryKeys::label},
    {"grid", [](auto& e, auto& v, auto&) { e.grid = &v; }},
    {"seeds", KeyKind::kRowCount, &EntryKeys::seeds},
};

constexpr Row<ScenarioFile> kFileRows[] = {
    {"description", KeyKind::kString, &ScenarioFile::description},
    {"report",
     [](auto& f, auto& v, auto& ctx) {
       f.report = str_of(v, ctx);
       if (!is_report_name(f.report)) {
         fail(ctx, "unknown report \"" + f.report + "\" (known: " + report_names() + ")");
       }
     }},
    {"defaults",
     [](auto&, auto& v, auto& ctx) {
       for (const auto& [key, unused] : obj_of(v, ctx)) {
         if (std::ranges::find(kEntryRows, key, &Row<EntryKeys>::key) != std::end(kEntryRows)) {
           fail(ctx, "\"" + key + "\" is not allowed in defaults (it is per-scenario)");
         }
       }
     }},
    {"scenarios", read_elsewhere<ScenarioFile>},
};

}  // namespace

std::vector<ScenarioKey> scenario_keys() {
  std::vector<ScenarioKey> keys;
  const auto add = [&keys](std::string_view object, const auto& rows) {
    for (const auto& r : rows) keys.push_back({object, r.key, r.kind});
  };
  add("file", kFileRows);
  add("entry", kEntryRows);
  add("scenario", kScenarioRows);
  add("lan", kLanRows);
  add("group", kGroupRows);
  add("workload", kWorkloadRows);
  add("thinner", kThinnerRows);
  add("bottleneck", kBottleneckRows);
  add("proxy", kProxyRows);
  add("collateral", kCollateralRows);
  return keys;
}

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
  parse_object(doc, "", kFileRows, out, [&doc](const std::string& key, const json::Value&) {
    if (doc.find("kind") != nullptr) {
      throw ScenarioError(
          "an auction_game grid spec is not a scenario file (use `speakup report`)");
    }
    if (doc.find("base") != nullptr) {
      throw ScenarioError("a tournament spec is not a scenario file (use `speakup tournament`)");
    }
    fail("top level", "unknown key \"" + key + "\"");
  });
  const json::Value* scenarios = doc.find("scenarios");
  if (scenarios == nullptr) fail("top level", "missing \"scenarios\" array");
  const json::Value::Array& entries = arr_of(*scenarios, "scenarios");
  if (entries.empty()) fail("scenarios", "must list at least one scenario");
  const json::Value no_defaults{json::Value::Object{}};
  const json::Value* defaults = doc.find("defaults");
  std::size_t index = 0;
  for (std::size_t si = 0; si < entries.size(); ++si) {
    const std::string ctx = "scenarios[" + std::to_string(si) + "]";

    // Split the entry into expansion directives and config keys.
    EntryKeys entry;
    json::Value config_json{json::Value::Object{}};
    parse_object(entries[si], ctx, kEntryRows, entry,
                 [&config_json](const std::string& key, const json::Value& v) {
                   config_json.set(key, v);
                 });
    // "lan" and "groups" are alternatives, not mergeable: an entry that
    // writes one replaces the other inherited from defaults (writing both
    // in the same entry is still the mutual-exclusion error below).
    const bool entry_has_lan = config_json.find("lan") != nullptr;
    const bool entry_has_groups = config_json.find("groups") != nullptr;
    config_json = merge(defaults != nullptr ? *defaults : no_defaults, config_json);
    if (entry_has_groups && !entry_has_lan) config_json.erase("lan");
    if (entry_has_lan && !entry_has_groups) config_json.erase("groups");

    std::vector<GridAxis> axes;
    if (entry.grid != nullptr) axes = grid_axes(*entry.grid, ctx + ".grid");
    check_row_cap(axes, entry.seeds, index, ctx);

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
          seed_v != nullptr ? value_of<std::uint64_t>(KeyKind::kSeed, *seed_v, ctx + ".seed")
                            : ScenarioConfig{}.seed;
      if (base_seed + static_cast<std::uint64_t>(entry.seeds - 1) >= kSeedLimit) {
        fail(ctx + ".seeds", std::to_string(entry.seeds) + " seeds from " +
                                 std::to_string(base_seed) + " reach 2^53 = " +
                                 std::to_string(kSeedLimit) +
                                 "; past it a JSON number skips integers");
      }
      for (int k = 0; k < entry.seeds; ++k) {
        json::Value expanded = combo;
        const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(k);
        expanded.set("seed", static_cast<double>(seed));
        LabeledScenario s;
        s.index = index++;
        s.config = config_from_json(expanded, ctx);
        if (!entry.label.empty()) {
          s.label = substitute_label(entry.label, expanded, ctx);
        } else {
          s.label = s.config.defense;
          for (std::size_t a = 0; a < axes.size(); ++a) {
            const std::string& path = axes[a].path;  // its last segment names the axis
            s.label += "/" + path.substr(path.rfind('.') + 1) + "=" +
                       scalar_to_string((*axes[a].values)[pos[a]]);
          }
        }
        if (entry.seeds > 1 && entry.label.find("{seed}") == std::string::npos) {
          s.label += "/seed" + std::to_string(seed);
        }
        out.scenarios.push_back(std::move(s));
      }
      // Advance the odometer; a full wrap means the product is exhausted.
      std::size_t a = axes.size();
      while (a > 0 && ++pos[a - 1] == axes[a - 1].values->size()) pos[--a] = 0;
      if (a == 0) break;
    }
  }

  // The diagnostic names the earliest row whose label repeats later.
  const std::vector<LabeledScenario>& rows = out.scenarios;
  std::map<std::string_view, std::size_t> first_row;
  std::size_t first_dup = rows.size();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto [it, fresh] = first_row.emplace(rows[i].label, i);
    if (!fresh) first_dup = std::min(first_dup, it->second);
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

}  // namespace

AuctionGameSpec load_auction_game_file(const std::string& path) {
  if (file_kind(path) != "auction_game") {
    throw ScenarioError(path + ": kind: must be \"auction_game\"");
  }
  try {
    const json::Value doc = json::parse(read_spec(path));
    AuctionGameSpec spec;
    if (const json::Value* d = doc.find("description")) {
      spec.description = str_of(*d, "description");
    }
    spec.seed = value_of<std::uint64_t>(KeyKind::kSeed, member(doc, "seed"), "seed");
    spec.stream = str_of(member(doc, "stream"), "stream");
    const auto ticks = [&doc](const std::string& key) {
      return value_of<int>(KeyKind::kPositiveInt, member(doc, key), key);
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
          fail(ctx, std::string("values must lie in ") + range + got(d));
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
