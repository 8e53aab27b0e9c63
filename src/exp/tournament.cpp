#include "exp/tournament.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "client/strategy.hpp"
#include "core/front_end_factory.hpp"
#include "exp/result_writer.hpp"
#include "exp/scenario_io.hpp"

namespace speakup::exp {

namespace json = util::json;

namespace {

[[noreturn]] void fail(const std::string& ctx, const std::string& msg) {
  throw ScenarioError("tournament " + ctx + ": " + msg);
}

std::vector<std::string> name_list(const json::Value& v, const std::string& ctx) {
  if (!v.is_array()) fail(ctx, "wants an array of names");
  std::vector<std::string> out;
  for (const json::Value& e : v.as_array()) {
    if (!e.is_string()) fail(ctx, "wants an array of strings");
    out.push_back(e.as_string());
  }
  if (out.empty()) fail(ctx, "must list at least one name");
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t j = i + 1; j < out.size(); ++j) {
      if (out[i] == out[j]) fail(ctx, "lists \"" + out[i] + "\" twice");
    }
  }
  return out;
}

/// Splits one ResultWriter CSV row into fields, honoring its RFC-4180
/// quoting (rows never span lines — csv_escape flattens newlines).
std::vector<std::string> split_csv_row(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

std::size_t column_of(const std::vector<std::string>& header, const char* name) {
  const auto it = std::find(header.begin(), header.end(), name);
  if (it == header.end()) {
    throw std::runtime_error(std::string("tournament score: results CSV has no '") +
                             name + "' column");
  }
  return static_cast<std::size_t>(it - header.begin());
}

double parse_double(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) {
    throw std::runtime_error("tournament score: " + what + " is not a number: '" +
                             text + "'");
  }
  return v;
}

std::int64_t parse_int(const std::string& text, const std::string& what) {
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(text, &pos);
    if (pos == text.size() && !text.empty()) return v;
  } catch (const std::exception&) {
  }
  throw std::runtime_error("tournament score: " + what + " is not an integer: '" +
                           text + "'");
}

std::string join(const std::vector<std::string>& names, const char* sep) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += sep;
    out += n;
  }
  return out;
}

}  // namespace

bool PayoffMatrix::dominates(std::size_t a, std::size_t b) const {
  bool strict = false;
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    const double pa = cell(a, s).good_fraction;
    const double pb = cell(b, s).good_fraction;
    if (pa < pb) return false;
    if (pa > pb) strict = true;
  }
  return strict;
}

std::vector<std::size_t> PayoffMatrix::pareto_rows() const {
  std::vector<std::size_t> out;
  for (std::size_t d = 0; d < defenses.size(); ++d) {
    bool beaten = false;
    for (std::size_t o = 0; o < defenses.size() && !beaten; ++o) {
      beaten = o != d && dominates(o, d);
    }
    if (!beaten) out.push_back(d);
  }
  return out;
}

TournamentSpec parse_tournament_spec(std::string_view json_text) {
  json::Value doc;
  try {
    doc = json::parse(json_text);
  } catch (const json::Error& e) {
    throw ScenarioError(e.what());
  }
  if (!doc.is_object()) fail("top level", "wants an object");

  TournamentSpec spec;
  spec.base = json::Value{json::Value::Object{}};
  bool have_base = false;
  for (const auto& [key, val] : doc.as_object()) {
    if (key == "description") {
      if (!val.is_string()) fail("description", "wants a string");
      spec.description = val.as_string();
    } else if (key == "defenses") {
      spec.defenses = name_list(val, "defenses");
    } else if (key == "strategies") {
      spec.strategies = name_list(val, "strategies");
    } else if (key == "attacker_group") {
      std::int64_t idx = -1;
      try {
        idx = val.as_int();
      } catch (const json::Error&) {
        idx = -1;
      }
      if (idx < 0) fail("attacker_group", "wants a non-negative integer");
      spec.attacker_group = static_cast<std::size_t>(idx);
    } else if (key == "base") {
      if (!val.is_object()) fail("base", "wants an object (scenario defaults)");
      spec.base = val;
      have_base = true;
    } else {
      fail("top level", "unknown key \"" + key + "\"");
    }
  }
  if (!have_base) fail("top level", "missing \"base\" (the shared scenario defaults)");

  // Registry defaults: an omitted axis means "every registered name".
  if (spec.defenses.empty()) {
    spec.defenses = core::FrontEndFactory::instance().names();
  }
  if (spec.strategies.empty()) {
    spec.strategies = client::StrategyFactory::instance().names();
  }
  for (const std::string& d : spec.defenses) {
    try {
      (void)resolve_defense_name(d);
    } catch (const std::invalid_argument& e) {
      fail("defenses", e.what());
    }
  }
  for (const std::string& s : spec.strategies) {
    try {
      (void)resolve_strategy_name(s);
    } catch (const std::invalid_argument& e) {
      fail("strategies", e.what());
    }
  }

  // The attacker group must exist in base.groups, with a workload object the
  // strategy axis can write into.
  const json::Value* groups = spec.base.find("groups");
  if (groups == nullptr || !groups->is_array()) {
    fail("base", "needs a \"groups\" array (tournaments use explicit groups, "
                 "not the \"lan\" shorthand)");
  }
  if (spec.attacker_group >= groups->as_array().size()) {
    fail("attacker_group",
         "index " + std::to_string(spec.attacker_group) + " is out of range: base "
             "lists " + std::to_string(groups->as_array().size()) + " group(s)");
  }
  const json::Value& attacker = groups->as_array()[spec.attacker_group];
  if (!attacker.is_object() || attacker.find("workload") == nullptr ||
      !attacker.find("workload")->is_object()) {
    fail("attacker_group", "base.groups[" + std::to_string(spec.attacker_group) +
                               "] needs a \"workload\" object");
  }
  // "label"/"grid"/"seeds" are per-scenario directives; base becomes the
  // file's defaults where they are rejected — fail here with a better message.
  for (const char* k : {"label", "grid", "seeds"}) {
    if (spec.base.find(k) != nullptr) {
      fail("base", std::string("\"") + k + "\" is not allowed (the tournament "
                       "builds its own grid and labels)");
    }
  }
  return spec;
}

TournamentSpec load_tournament_spec(const std::string& path) {
  const std::string text = read_spec(path);
  try {
    return parse_tournament_spec(text);
  } catch (const ScenarioError& e) {
    throw ScenarioError(path + ": " + e.what());
  }
}

std::string tournament_scenarios_json(const TournamentSpec& spec) {
  const std::string strategy_path =
      "groups." + std::to_string(spec.attacker_group) + ".workload.strategy";

  json::Value defense_axis{json::Value::Array{}};
  for (const std::string& d : spec.defenses) defense_axis.push_back(d);
  json::Value strategy_axis{json::Value::Array{}};
  for (const std::string& s : spec.strategies) strategy_axis.push_back(s);

  // Defense is the first grid axis, so it is outermost in the expansion:
  // cell (d, s) lands at scenario index d * |strategies| + s.
  json::Value grid{json::Value::Object{}};
  grid.set("defense", std::move(defense_axis));
  grid.set(strategy_path, std::move(strategy_axis));

  json::Value entry{json::Value::Object{}};
  entry.set("label", "{defense}|{" + strategy_path + "}");
  entry.set("grid", std::move(grid));
  json::Value scenarios{json::Value::Array{}};
  scenarios.push_back(std::move(entry));

  json::Value doc{json::Value::Object{}};
  doc.set("description", spec.description.empty()
                             ? std::string("tournament: ") +
                                   std::to_string(spec.defenses.size()) +
                                   " defense(s) x " +
                                   std::to_string(spec.strategies.size()) +
                                   " strategy(s)"
                             : spec.description);
  doc.set("defaults", spec.base);
  doc.set("scenarios", std::move(scenarios));
  const std::string text = doc.dump(2) + "\n";

  // Validate now: every cell must parse and construct (defense registered,
  // strategy knobs accepted) before any sweep is launched on this file.
  const ScenarioFile file = parse_scenario_file(text);
  if (file.scenarios.size() != spec.defenses.size() * spec.strategies.size()) {
    fail("expansion", "expected " +
                          std::to_string(spec.defenses.size() * spec.strategies.size()) +
                          " scenarios, got " + std::to_string(file.scenarios.size()));
  }
  return text;
}

PayoffMatrix score_tournament(const TournamentSpec& spec,
                              const std::string& results_csv) {
  PayoffMatrix m;
  m.description = spec.description;
  m.defenses = spec.defenses;
  m.strategies = spec.strategies;
  const std::size_t n_cells = spec.defenses.size() * spec.strategies.size();

  std::istringstream in(results_csv);
  std::string line;
  if (!std::getline(in, line) || line != ResultWriter::csv_header()) {
    throw std::runtime_error(
        "tournament score: results do not start with the speakup CSV header");
  }
  const std::vector<std::string> header = split_csv_row(line);
  const std::size_t c_label = column_of(header, "label");
  const std::size_t c_defense = column_of(header, "defense");
  const std::size_t c_good = column_of(header, "fraction_good_served");
  const std::size_t c_bytes = column_of(header, "attacker_bytes");
  const std::size_t c_fp = column_of(header, "fingerprint");
  const std::size_t c_error = column_of(header, "error");
  const std::size_t c_served = column_of(header, "served_total");
  const std::size_t c_events = column_of(header, "events_executed");
  const std::size_t c_busy = column_of(header, "server_busy_fraction");

  std::vector<PayoffCell> cells(n_cells);
  std::vector<bool> seen(n_cells, false);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = split_csv_row(line);
    if (fields.size() != header.size()) {
      throw std::runtime_error("tournament score: malformed row: " + line);
    }
    const std::size_t index =
        static_cast<std::size_t>(parse_int(fields[0], "row index"));
    if (index >= n_cells) {
      throw std::runtime_error("tournament score: row index " +
                               std::to_string(index) + " is outside the " +
                               std::to_string(n_cells) + "-cell matrix");
    }
    if (seen[index]) {
      throw std::runtime_error("tournament score: cell index " +
                               std::to_string(index) + " appears twice");
    }
    seen[index] = true;
    const std::size_t d = index / spec.strategies.size();
    const std::size_t s = index % spec.strategies.size();
    const std::string want_label = spec.defenses[d] + "|" + spec.strategies[s];
    if (fields[c_label] != want_label || fields[c_defense] != spec.defenses[d]) {
      throw std::runtime_error("tournament score: row " + std::to_string(index) +
                               " is labeled '" + fields[c_label] +
                               "', expected '" + want_label +
                               "' — the CSV was not produced from this spec");
    }
    if (!fields[c_error].empty()) {
      throw std::runtime_error("tournament score: cell '" + want_label +
                               "' failed: " + fields[c_error]);
    }
    PayoffCell& cell = cells[index];
    cell.index = index;
    cell.defense = spec.defenses[d];
    cell.strategy = spec.strategies[s];
    cell.good_fraction = parse_double(fields[c_good], "fraction_good_served");
    cell.attacker_bytes = parse_int(fields[c_bytes], "attacker_bytes");
    cell.fingerprint = fields[c_fp];
    cell.served_total = parse_int(fields[c_served], "served_total");
    cell.events_executed = parse_int(fields[c_events], "events_executed");
    cell.server_busy_fraction =
        parse_double(fields[c_busy], "server_busy_fraction");
  }
  for (std::size_t i = 0; i < n_cells; ++i) {
    if (!seen[i]) {
      throw std::runtime_error(
          "tournament score: cell index " + std::to_string(i) + " ('" +
          spec.defenses[i / spec.strategies.size()] + "|" +
          spec.strategies[i % spec.strategies.size()] +
          "') is missing from the results");
    }
  }
  m.cells = std::move(cells);
  return m;
}

std::string payoff_csv(const PayoffMatrix& m) {
  std::string out = "defense,strategy,fraction_good_served,attacker_bytes,fingerprint\n";
  for (const PayoffCell& c : m.cells) {
    out += c.defense + ',' + c.strategy + ',' +
           json::number_to_string(c.good_fraction) + ',' +
           std::to_string(c.attacker_bytes) + ',' + c.fingerprint + '\n';
  }
  return out;
}

std::string payoff_json(const PayoffMatrix& m) {
  json::Value doc{json::Value::Object{}};
  if (!m.description.empty()) doc.set("description", m.description);
  json::Value defenses{json::Value::Array{}};
  for (const std::string& d : m.defenses) defenses.push_back(d);
  doc.set("defenses", std::move(defenses));
  json::Value strategies{json::Value::Array{}};
  for (const std::string& s : m.strategies) strategies.push_back(s);
  doc.set("strategies", std::move(strategies));
  json::Value cells{json::Value::Array{}};
  for (const PayoffCell& c : m.cells) {
    json::Value cv{json::Value::Object{}};
    cv.set("index", static_cast<double>(c.index));
    cv.set("defense", c.defense);
    cv.set("strategy", c.strategy);
    cv.set("fraction_good_served", c.good_fraction);
    cv.set("attacker_bytes", static_cast<double>(c.attacker_bytes));
    cv.set("fingerprint", c.fingerprint);
    json::Value metrics{json::Value::Object{}};
    metrics.set("served_total", static_cast<double>(c.served_total));
    metrics.set("events_executed", static_cast<double>(c.events_executed));
    metrics.set("server_busy_fraction", c.server_busy_fraction);
    cv.set("metrics", std::move(metrics));
    cells.push_back(std::move(cv));
  }
  doc.set("cells", std::move(cells));
  json::Value pareto{json::Value::Array{}};
  for (const std::size_t d : m.pareto_rows()) pareto.push_back(m.defenses[d]);
  doc.set("pareto_frontier", std::move(pareto));
  return doc.dump(2) + "\n";
}

std::string pareto_report(const PayoffMatrix& m) {
  std::ostringstream os;
  os << "tournament: " << m.defenses.size() << " defense(s) x "
     << m.strategies.size() << " attacker strategy(s)\n";
  if (!m.description.empty()) os << m.description << "\n";
  os << "\npayoff (fraction of good requests served / attacker bytes):\n";
  for (std::size_t d = 0; d < m.defenses.size(); ++d) {
    for (std::size_t s = 0; s < m.strategies.size(); ++s) {
      const PayoffCell& c = m.cell(d, s);
      os << "  " << c.defense << " vs " << c.strategy << ": "
         << json::number_to_string(c.good_fraction) << " / " << c.attacker_bytes
         << "\n";
    }
  }
  os << "\nbest defense per attacker strategy:\n";
  for (std::size_t s = 0; s < m.strategies.size(); ++s) {
    double best = m.cell(0, s).good_fraction;
    for (std::size_t d = 1; d < m.defenses.size(); ++d) {
      best = std::max(best, m.cell(d, s).good_fraction);
    }
    std::vector<std::string> winners;
    for (std::size_t d = 0; d < m.defenses.size(); ++d) {
      if (m.cell(d, s).good_fraction == best) winners.push_back(m.defenses[d]);
    }
    os << "  vs " << m.strategies[s] << ": " << join(winners, ", ") << " ("
       << json::number_to_string(best) << ")\n";
  }
  os << "\ndominance (weak, across every attacker column):\n";
  for (std::size_t d = 0; d < m.defenses.size(); ++d) {
    std::vector<std::string> dominates, dominated_by;
    for (std::size_t o = 0; o < m.defenses.size(); ++o) {
      if (o == d) continue;
      if (m.dominates(d, o)) dominates.push_back(m.defenses[o]);
      if (m.dominates(o, d)) dominated_by.push_back(m.defenses[o]);
    }
    os << "  " << m.defenses[d] << ": dominates ["
       << join(dominates, ", ") << "], dominated by ["
       << join(dominated_by, ", ") << "]\n";
  }
  std::vector<std::string> frontier;
  for (const std::size_t d : m.pareto_rows()) frontier.push_back(m.defenses[d]);
  os << "\npareto frontier: " << join(frontier, ", ") << "\n";
  return os.str();
}

}  // namespace speakup::exp
