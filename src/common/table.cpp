#include "common/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace adapt::common {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

void Table::add_row(const std::string& label,
                    const std::vector<double>& values, int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size() + 1);
  cells.push_back(label);
  for (double v : values) cells.push_back(format_double(v, precision));
  add_row(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    out << '|';
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      out << ' ' << cell << std::string(widths[c] - cell.size(), ' ') << " |";
    }
    out << '\n';
  };
  auto emit_rule = [&] {
    out << '|';
    for (std::size_t c = 0; c < header_.size(); ++c) {
      out << std::string(widths[c] + 2, '-') << '|';
    }
    out << '\n';
  };

  emit_row(header_);
  emit_rule();
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string format_percent(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f%%", v * 100.0);
  return buf;
}

}  // namespace adapt::common
