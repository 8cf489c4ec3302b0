// Minimal ASCII table renderer. Every bench binary prints the rows of the
// paper table/figure it regenerates through this, so outputs line up and
// are easy to diff against EXPERIMENTS.md.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace adapt::common {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  // Adds a row; short rows are padded with empty cells.
  void add_row(std::vector<std::string> cells);

  // Convenience for numeric rows: formatted with the given precision.
  void add_row(const std::string& label, const std::vector<double>& values,
               int precision = 2);

  std::string to_string() const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Fixed-precision double -> string without trailing stream state games.
std::string format_double(double v, int precision = 2);

// Renders v as a percentage with one decimal, e.g. 0.873 -> "87.3%".
std::string format_percent(double v);

}  // namespace adapt::common
