#include "exp/result_writer.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/json.hpp"

namespace speakup::exp {

namespace json = util::json;

namespace {

/// RFC-4180 quoting for commas/quotes — but newlines are replaced with a
/// space first: merge_csv (and most CSV tooling) works line by line, so a
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

const std::string& ResultWriter::records_header() {
  static const std::string header = "index,metric,value";
  return header;
}

std::string ResultWriter::records_path(const std::string& csv_path) {
  const std::string_view stem(csv_path.data(),
                              csv_path.size() - (csv_path.ends_with(".csv") ? 4 : 0));
  return std::string(stem) + ".records.csv";
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

std::string ResultWriter::records_block(std::size_t index, const RunOutcome& o) {
  if (!o.ok()) return {};
  const std::vector<GroupResult>& groups = o.result.groups;
  const std::string key = std::to_string(index) + ",groups";
  std::string out = key + ',' + std::to_string(groups.size()) + '\n';
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::string prefix = key + '.' + std::to_string(g) + '.';
    const auto line = [&](const char* metric, const std::string& value) {
      out += prefix;
      out += metric;
      out += ',';
      out += value;
      out += '\n';
    };
    const client::ClientStats& t = groups[g].totals;
    line("served", std::to_string(t.served));
    line("denied", std::to_string(t.denied));
    line("payments_declined", std::to_string(t.payments_declined));
    line("payments_abandoned", std::to_string(t.payments_abandoned));
    line("allocation", fmt(groups[g].allocation));
  }
  return out;
}

void ResultWriter::add(std::size_t index, const RunOutcome& outcome) {
  if (!row_indices_.insert(index).second) {
    throw std::invalid_argument("ResultWriter: duplicate scenario index " +
                                std::to_string(index));
  }
  rows_.push_back(Row{index, outcome});
}

std::vector<const ResultWriter::Row*> ResultWriter::sorted_rows() const {
  std::vector<const Row*> sorted;
  sorted.reserve(rows_.size());
  for (const Row& r : rows_) sorted.push_back(&r);
  std::sort(sorted.begin(), sorted.end(),
            [](const Row* a, const Row* b) { return a->index < b->index; });
  return sorted;
}

void ResultWriter::write_csv(std::ostream& os) const {
  os << csv_header() << '\n';
  for (const Row* r : sorted_rows()) os << csv_row(r->index, r->outcome) << '\n';
}

void ResultWriter::write_records(std::ostream& os) const {
  os << records_header() << '\n';
  for (const Row* r : sorted_rows()) os << records_block(r->index, r->outcome);
}

namespace {

/// Both result files are a header line followed by index-keyed blocks: a
/// results CSV block is one line, a records block is the run of adjacent
/// lines that share an index.
struct Block {
  std::size_t index;
  std::size_t source;     // which input it came from
  std::string_view text;  // its lines, newline-terminated (but for an
                          // input's unterminated last line)
};

std::string_view first_line(std::string_view text) { return text.substr(0, text.find('\n')); }

/// Appends the blocks of one file to `out`, validating its header against
/// `header`. `what` names the input in error messages ("merge_csv: 'a.csv'").
void scan_blocks(std::string_view text, const std::string& header, const std::string& what,
                 std::size_t source, std::vector<Block>& out) {
  const bool one_line = header == ResultWriter::csv_header();
  if (first_line(text) != header) {
    throw std::invalid_argument(what + " does not start with the speakup " +
                                (one_line ? "CSV" : "records") + " header");
  }
  std::size_t pos = header.size() + 1;
  for (std::size_t line_no = 2; pos < text.size(); ++line_no) {
    const std::size_t start = pos;
    pos = std::min(text.find('\n', start), text.size() - 1) + 1;
    const std::string_view line = text.substr(start, pos - start);
    const std::string_view body = first_line(line);
    if (body.empty()) continue;
    std::size_t i = 0;
    std::size_t index = 0;
    for (; i < body.size() && body[i] >= '0' && body[i] <= '9'; ++i) {
      const auto digit = static_cast<std::size_t>(body[i] - '0');
      if (index > (std::numeric_limits<std::size_t>::max() - digit) / 10) {
        throw std::invalid_argument(what + " line " + std::to_string(line_no) +
                                    ": row index is too large: " + std::string(body));
      }
      index = index * 10 + digit;
    }
    if (i == 0 || i >= body.size() || body[i] != ',') {
      throw std::invalid_argument(what + " has a row without a leading index: " +
                                  std::string(body));
    }
    Block* last = out.empty() ? nullptr : &out.back();
    if (!one_line && last != nullptr && last->source == source && last->index == index &&
        last->text.data() + last->text.size() == line.data()) {
      last->text = std::string_view(last->text.data(), last->text.size() + line.size());
    } else {
      out.push_back(Block{index, source, line});
    }
  }
}

/// Sorts blocks by index (stably: ties keep input order) and rejects a
/// repeated index, saying which input(s) hold the copies and whether the
/// duplication is inside one file or across two.
void sort_blocks(std::vector<Block>& blocks, const char* op,
                 const std::vector<std::string>& names) {
  std::stable_sort(blocks.begin(), blocks.end(),
                   [](const Block& a, const Block& b) { return a.index < b.index; });
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    const Block& a = blocks[i - 1];
    const Block& b = blocks[i];
    if (a.index != b.index) continue;
    const std::string head = std::string(op) + ": scenario index " + std::to_string(a.index);
    if (a.source == b.source) {
      throw std::invalid_argument(head + " appears more than once inside '" + names[a.source] +
                                  "' (that file was never a valid single-run output)");
    }
    throw std::invalid_argument(head + " appears in both '" + names[a.source] + "' and '" +
                                names[b.source] +
                                "' — shard inputs must cover disjoint scenario indices");
  }
}

std::string join_blocks(const std::string& header, const std::vector<Block>& blocks) {
  std::size_t size = header.size() + 1;
  for (const Block& b : blocks) size += b.text.size() + 1;
  std::string out;
  out.reserve(size);
  out += header;
  out += '\n';
  for (const Block& b : blocks) {
    out += b.text;
    if (out.back() != '\n') out += '\n';
  }
  return out;
}

/// A writer killed mid-line leaves its file without a trailing newline;
/// whatever sits after the last '\n' is a partial line and must be re-run,
/// not merged — even when the cut makes it look well-formed.
std::string_view whole_lines(std::string_view text) {
  return text.substr(0, text.find_last_of('\n') + 1);  // npos + 1 == 0
}

/// True when a records block holds every line its leading
/// `index,groups,N` line promises: records_block writes five per group.
bool records_block_complete(std::string_view block) {
  constexpr std::size_t kGroupMetrics = 5;
  const std::string_view first = first_line(block);
  const std::string_view count = first.substr(first.find(',') + 1);
  std::size_t groups = 0;
  if (!count.starts_with("groups,") ||
      std::from_chars(count.data() + 7, count.data() + count.size(), groups).ptr !=
          count.data() + count.size()) {
    return false;
  }
  const auto lines = static_cast<std::size_t>(std::count(block.begin(), block.end(), '\n'));
  return groups < lines && lines == 1 + kGroupMetrics * groups;
}

}  // namespace

std::vector<std::size_t> ResultWriter::csv_indices(const std::string& csv) {
  std::vector<Block> blocks;
  scan_blocks(csv, csv_header(), "csv_indices: input", 0, blocks);
  std::vector<std::size_t> out;
  out.reserve(blocks.size());
  for (const Block& b : blocks) out.push_back(b.index);
  std::sort(out.begin(), out.end());
  return out;
}

ResultWriter::ResumeInfo ResultWriter::resume_info(const std::string& csv,
                                                   const std::string& records) {
  static const std::vector<std::string> names{"existing output", "existing records"};
  std::vector<Block> rows;
  std::vector<Block> blocks;
  if (const std::string_view whole = whole_lines(csv); !whole.empty()) {
    scan_blocks(whole, csv_header(), "resume: existing output", 0, rows);
  }
  if (const std::string_view whole = whole_lines(records); !whole.empty()) {
    scan_blocks(whole, records_header(), "resume: existing records", 1, blocks);
  }
  sort_blocks(rows, "resume", names);
  sort_blocks(blocks, "resume", names);

  // A failed row leaves the metric columns empty and fills the final
  // `error` column (and has no records block); only error-free rows with
  // the full column count and a complete records block qualify.
  const std::size_t n_columns = split_csv_row(csv_header()).size();
  ResumeInfo info;
  std::vector<Block> done_rows;
  std::vector<Block> done_blocks;
  auto block = blocks.begin();
  for (const Block& row : rows) {
    while (block != blocks.end() && block->index < row.index) ++block;
    if (block == blocks.end() || block->index != row.index ||
        !records_block_complete(block->text)) {
      continue;
    }
    const std::vector<std::string> fields = split_csv_row(std::string(first_line(row.text)));
    if (fields.size() != n_columns || !fields.back().empty()) continue;
    done_rows.push_back(row);
    done_blocks.push_back(*block);
    info.completed.emplace_back(row.index, fields[1]);
  }
  info.completed_csv = join_blocks(csv_header(), done_rows);
  info.completed_records = join_blocks(records_header(), done_blocks);
  return info;
}

std::string ResultWriter::merge_csv(const std::vector<std::string>& shards,
                                    const std::vector<std::string>& names) {
  if (shards.empty()) throw std::invalid_argument("merge_csv: no inputs");
  if (!names.empty() && names.size() != shards.size()) {
    throw std::invalid_argument("merge_csv: names/inputs length mismatch");
  }
  std::vector<std::string> labels = names;  // "input 0", ... when none are given
  for (std::size_t i = labels.size(); i < shards.size(); ++i) {
    labels.push_back("input " + std::to_string(i));
  }
  const std::string& header =
      first_line(shards[0]) == records_header() ? records_header() : csv_header();
  std::vector<Block> blocks;
  for (std::size_t si = 0; si < shards.size(); ++si) {
    scan_blocks(shards[si], header, "merge_csv: '" + labels[si] + "'", si, blocks);
  }
  sort_blocks(blocks, "merge_csv", labels);
  return join_blocks(header, blocks);
}

}  // namespace speakup::exp
