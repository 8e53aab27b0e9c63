#include "exp/result_writer.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace speakup::exp {

namespace json = util::json;

namespace {

/// RFC-4180 quoting for commas/quotes — but newlines are replaced with a
/// space first: merge_csv (and most CSV tooling) works line-by-line, so a
/// row must never span lines even when a label or error message contains
/// '\n'.
std::string csv_escape(const std::string& field) {
  std::string flat = field;
  for (char& c : flat) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  if (flat.find_first_of(",\"") == std::string::npos) return flat;
  std::string out = "\"";
  for (const char c : flat) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

std::string fingerprint_hex(std::uint64_t fp) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(fp));
  return buf;
}

std::string fmt(double v) { return json::number_to_string(v); }

}  // namespace

const std::string& ResultWriter::csv_header() {
  static const std::string header =
      "index,label,defense,strategies,seed,capacity_rps,duration_s,"
      "served_total,served_good,served_bad,"
      "allocation_good,allocation_bad,server_time_good,server_time_bad,"
      "fraction_good_served,server_busy_fraction,events_executed,attacker_bytes,"
      "fingerprint,error";
  return header;
}

std::vector<std::string> ResultWriter::split_csv_row(const std::string& line) {
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

std::string ResultWriter::csv_row(std::size_t index, const RunOutcome& o) {
  std::ostringstream os;
  os << index << ',' << csv_escape(o.label) << ','
     << csv_escape(o.config.defense) << ','
     << csv_escape(o.config.strategy_names()) << ',' << o.config.seed << ','
     << fmt(o.config.capacity_rps) << ',' << fmt(o.config.duration.sec()) << ',';
  if (o.ok()) {
    const ExperimentResult& r = o.result;
    os << r.served_total << ',' << r.served_good << ',' << r.served_bad << ','
       << fmt(r.allocation_good) << ',' << fmt(r.allocation_bad) << ','
       << fmt(r.server_time_good) << ',' << fmt(r.server_time_bad) << ','
       << fmt(r.fraction_good_served) << ',' << fmt(r.server_busy_fraction) << ','
       << r.events_executed << ',' << r.attacker_bytes() << ','
       << fingerprint_hex(r.fingerprint()) << ',';
  } else {
    // 12 empty metric/fingerprint columns, then the error column.
    os << ",,,,,,,,,,,," << csv_escape(o.error);
  }
  return os.str();
}

void ResultWriter::add(std::size_t index, const RunOutcome& outcome) {
  for (const Row& r : rows_) {
    if (r.index == index) {
      throw std::invalid_argument("ResultWriter: duplicate scenario index " +
                                  std::to_string(index));
    }
  }
  rows_.push_back(Row{index, outcome});
}

void ResultWriter::write_csv(std::ostream& os) const {
  std::vector<const Row*> sorted;
  sorted.reserve(rows_.size());
  for (const Row& r : rows_) sorted.push_back(&r);
  std::sort(sorted.begin(), sorted.end(),
            [](const Row* a, const Row* b) { return a->index < b->index; });
  os << csv_header() << '\n';
  for (const Row* r : sorted) os << csv_row(r->index, r->outcome) << '\n';
}

void ResultWriter::write_json(std::ostream& os) const {
  std::vector<const Row*> sorted;
  sorted.reserve(rows_.size());
  for (const Row& r : rows_) sorted.push_back(&r);
  std::sort(sorted.begin(), sorted.end(),
            [](const Row* a, const Row* b) { return a->index < b->index; });

  json::Value results{json::Value::Array{}};
  for (const Row* row : sorted) {
    const RunOutcome& o = row->outcome;
    json::Value entry;
    entry.set("index", static_cast<double>(row->index));
    entry.set("label", o.label);
    entry.set("defense", o.config.defense);
    entry.set("strategy_names", o.config.strategy_names());
    entry.set("seed", static_cast<double>(o.config.seed));
    entry.set("capacity_rps", o.config.capacity_rps);
    entry.set("duration_s", o.config.duration.sec());
    if (!o.ok()) {
      entry.set("error", o.error);
      results.push_back(std::move(entry));
      continue;
    }
    const ExperimentResult& r = o.result;
    json::Value metrics;
    metrics.set("served_total", static_cast<double>(r.served_total));
    metrics.set("served_good", static_cast<double>(r.served_good));
    metrics.set("served_bad", static_cast<double>(r.served_bad));
    metrics.set("allocation_good", r.allocation_good);
    metrics.set("allocation_bad", r.allocation_bad);
    metrics.set("server_time_good", r.server_time_good);
    metrics.set("server_time_bad", r.server_time_bad);
    metrics.set("fraction_good_served", r.fraction_good_served);
    metrics.set("server_busy_fraction", r.server_busy_fraction);
    metrics.set("events_executed", static_cast<double>(r.events_executed));
    metrics.set("attacker_bytes", static_cast<double>(r.attacker_bytes()));
    entry.set("metrics", std::move(metrics));
    json::Value groups{json::Value::Array{}};
    for (const GroupResult& g : r.groups) {
      json::Value gv;
      gv.set("label", g.label);
      gv.set("count", g.count);
      gv.set("strategy", g.strategy);
      gv.set("served", static_cast<double>(g.totals.served));
      gv.set("denied", static_cast<double>(g.totals.denied));
      gv.set("allocation", g.allocation);
      groups.push_back(std::move(gv));
    }
    entry.set("groups", std::move(groups));
    // Adversary-library view: the same totals merged per workload strategy.
    json::Value strategies{json::Value::Array{}};
    for (const StrategyResult& s : r.strategy_totals()) {
      json::Value sv;
      sv.set("strategy", s.strategy);
      sv.set("clients", s.clients);
      sv.set("served", static_cast<double>(s.totals.served));
      sv.set("denied", static_cast<double>(s.totals.denied));
      sv.set("payments_declined", static_cast<double>(s.totals.payments_declined));
      sv.set("payments_abandoned", static_cast<double>(s.totals.payments_abandoned));
      sv.set("allocation", s.allocation);
      strategies.push_back(std::move(sv));
    }
    entry.set("strategies", std::move(strategies));
    entry.set("fingerprint", fingerprint_hex(r.fingerprint()));
    // Host wall time: the one nondeterministic field, excluded from the
    // fingerprint and from the CSV form.
    entry.set("wall_seconds", r.wall_seconds);
    results.push_back(std::move(entry));
  }
  json::Value doc;
  doc.set("result_count", static_cast<double>(rows_.size()));
  doc.set("results", std::move(results));
  os << doc.dump(2) << '\n';
}

namespace {

struct CsvLine {
  std::size_t index;
  std::string text;
};

/// Splits one write_csv output into indexed rows, validating the header.
/// `what` names the caller in error messages ("merge_csv: input 0", ...).
std::vector<CsvLine> scan_csv(const std::string& csv, const std::string& what) {
  std::vector<CsvLine> lines;
  std::istringstream in(csv);
  std::string line;
  if (!std::getline(in, line) || line != ResultWriter::csv_header()) {
    throw std::invalid_argument(what + " does not start with the speakup CSV header");
  }
  for (std::size_t line_no = 2; std::getline(in, line); ++line_no) {
    if (line.empty()) continue;
    std::size_t pos = 0;
    std::size_t index = 0;
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
      const auto digit = static_cast<std::size_t>(line[pos] - '0');
      if (index > (std::numeric_limits<std::size_t>::max() - digit) / 10) {
        throw std::invalid_argument(what + " line " + std::to_string(line_no) +
                                    ": row index is too large: " + line);
      }
      index = index * 10 + digit;
      ++pos;
    }
    if (pos == 0 || pos >= line.size() || line[pos] != ',') {
      throw std::invalid_argument(what + " has a row without a leading index: " + line);
    }
    lines.push_back(CsvLine{index, line});
  }
  return lines;
}

}  // namespace

std::vector<std::size_t> ResultWriter::csv_indices(const std::string& csv) {
  std::vector<std::size_t> out;
  for (const CsvLine& l : scan_csv(csv, "csv_indices: input")) out.push_back(l.index);
  std::sort(out.begin(), out.end());
  return out;
}

ResultWriter::ResumeInfo ResultWriter::resume_info(const std::string& csv) {
  // A writer killed mid-row leaves the file without a trailing newline;
  // whatever sits after the last '\n' is a partial row and must be re-run,
  // not merged — even when the truncation point makes it look well-formed.
  std::string intact = csv;
  if (!intact.empty() && intact.back() != '\n') {
    const std::size_t last_nl = intact.find_last_of('\n');
    intact.resize(last_nl == std::string::npos ? 0 : last_nl + 1);
  }
  const std::size_t n_columns = split_csv_row(csv_header()).size();
  ResumeInfo info;
  info.completed_csv = csv_header() + "\n";
  std::vector<std::size_t> seen;
  for (const CsvLine& l : scan_csv(intact, "resume: existing output")) {
    if (std::find(seen.begin(), seen.end(), l.index) != seen.end()) {
      throw std::invalid_argument(
          "resume: existing output lists scenario index " +
          std::to_string(l.index) + " more than once; refusing to resume from it");
    }
    seen.push_back(l.index);
    const std::vector<std::string> fields = split_csv_row(l.text);
    // A failed row leaves the metric columns empty and fills the final
    // `error` column; only successfully completed rows with the full
    // column count qualify — a short row is a corrupt partial write.
    const bool completed = fields.size() == n_columns && fields.back().empty();
    if (!completed) continue;
    info.completed_csv += l.text;
    info.completed_csv += '\n';
    info.completed.emplace_back(l.index, fields[1]);
  }
  return info;
}

namespace {

/// "input 0", ... when the caller did not supply file names.
std::vector<std::string> default_names(const char* op, std::size_t n,
                                       const std::vector<std::string>& names) {
  if (!names.empty()) {
    if (names.size() != n) {
      throw std::invalid_argument(std::string(op) +
                                  ": names/inputs length mismatch");
    }
    return names;
  }
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back("input " + std::to_string(i));
  return out;
}

/// The duplicate-index diagnostic: says which input(s) hold the copies, and
/// whether the duplication is inside one file or across two.
[[noreturn]] void throw_duplicate_index(const char* op, std::size_t index,
                                        const std::string& first_name,
                                        const std::string& second_name) {
  if (first_name == second_name) {
    throw std::invalid_argument(
        std::string(op) + ": scenario index " + std::to_string(index) +
        " appears more than once inside '" + first_name +
        "' (that file was never a valid single-run output)");
  }
  throw std::invalid_argument(
      std::string(op) + ": scenario index " + std::to_string(index) +
      " appears in both '" + first_name + "' and '" + second_name +
      "' — shard inputs must cover disjoint scenario indices");
}

}  // namespace

std::string ResultWriter::merge_csv(const std::vector<std::string>& shards) {
  return merge_csv(shards, {});
}

std::string ResultWriter::merge_csv(const std::vector<std::string>& shards,
                                    const std::vector<std::string>& names) {
  if (shards.empty()) throw std::invalid_argument("merge_csv: no inputs");
  const std::vector<std::string> labels =
      default_names("merge_csv", shards.size(), names);
  struct SourcedLine {
    CsvLine line;
    std::size_t source;
  };
  std::vector<SourcedLine> lines;
  for (std::size_t si = 0; si < shards.size(); ++si) {
    const std::vector<CsvLine> shard_lines =
        scan_csv(shards[si], "merge_csv: '" + labels[si] + "'");
    for (const CsvLine& l : shard_lines) lines.push_back(SourcedLine{l, si});
  }
  std::stable_sort(lines.begin(), lines.end(),
                   [](const SourcedLine& a, const SourcedLine& b) {
                     return a.line.index < b.line.index;
                   });
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].line.index == lines[i - 1].line.index) {
      throw_duplicate_index("merge_csv", lines[i].line.index,
                            labels[lines[i - 1].source], labels[lines[i].source]);
    }
  }
  std::string out = csv_header() + "\n";
  for (const SourcedLine& l : lines) {
    out += l.line.text;
    out += '\n';
  }
  return out;
}

std::string ResultWriter::merge_json(const std::vector<std::string>& shards) {
  return merge_json(shards, {});
}

std::string ResultWriter::merge_json(const std::vector<std::string>& shards,
                                     const std::vector<std::string>& names) {
  if (shards.empty()) throw std::invalid_argument("merge_json: no inputs");
  const std::vector<std::string> labels =
      default_names("merge_json", shards.size(), names);
  struct Entry {
    std::size_t index;
    std::size_t source;
    json::Value value;
  };
  std::vector<Entry> entries;
  for (std::size_t si = 0; si < shards.size(); ++si) {
    const std::string what = "merge_json: '" + labels[si] + "'";
    json::Value doc;
    try {
      doc = json::parse(shards[si]);
    } catch (const json::Error& e) {
      throw std::invalid_argument(what + ": " + e.what());
    }
    const json::Value* results = doc.find("results");
    if (results == nullptr || !results->is_array()) {
      throw std::invalid_argument(what + " is not a speakup JSON result document "
                                         "(missing \"results\" array)");
    }
    for (const json::Value& entry : results->as_array()) {
      const json::Value* index = entry.find("index");
      std::int64_t idx = -1;
      try {
        idx = index != nullptr ? index->as_int() : -1;
      } catch (const json::Error&) {
        idx = -1;
      }
      if (idx < 0) {
        throw std::invalid_argument(what + " has a result without an integer \"index\"");
      }
      entries.push_back(Entry{static_cast<std::size_t>(idx), si, entry});
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) { return a.index < b.index; });
  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].index == entries[i - 1].index) {
      throw_duplicate_index("merge_json", entries[i].index,
                            labels[entries[i - 1].source], labels[entries[i].source]);
    }
  }
  json::Value results{json::Value::Array{}};
  for (Entry& e : entries) results.push_back(std::move(e.value));
  json::Value doc;
  doc.set("result_count", static_cast<double>(entries.size()));
  doc.set("results", std::move(results));
  return doc.dump(2) + "\n";
}

}  // namespace speakup::exp
