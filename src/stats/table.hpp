// Aligned-column text tables. Every `speakup report` prints the rows/series
// the corresponding paper table or figure reports (exp/report.cpp), and
// `speakup run` its summary; this type keeps the output uniform and
// diff-friendly. Machine-readable results are the CSVs of exp::ResultWriter.
#pragma once

#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace speakup::stats {

class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  /// Starts a new row. Fill it with add() calls.
  Table& row() {
    rows_.emplace_back();
    return *this;
  }

  Table& add(const std::string& cell) {
    SPEAKUP_ASSERT(!rows_.empty());
    rows_.back().push_back(cell);
    return *this;
  }

  Table& add(double v, int precision = 3) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return add(os.str());
  }

  Table& add(std::int64_t v) { return add(std::to_string(v)); }
  Table& add(int v) { return add(std::to_string(v)); }

  void print(std::ostream& os) const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& r : rows_) {
      for (std::size_t c = 0; c < r.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], r[c].size());
      }
    }
    print_row(os, headers_, widths);
    std::size_t total = 0;
    for (const auto w : widths) total += w + 2;
    os << std::string(total, '-') << "\n";
    for (const auto& r : rows_) print_row(os, r, widths);
  }

 private:
  static void print_row(std::ostream& os, const std::vector<std::string>& r,
                        const std::vector<std::size_t>& widths) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[std::min(c, widths.size() - 1)]) + 2)
         << r[c];
    }
    os << "\n";
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace speakup::stats
