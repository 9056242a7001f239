#ifndef HOSR_UTIL_TABLE_H_
#define HOSR_UTIL_TABLE_H_

#include <ostream>
#include <string>
#include <vector>

namespace hosr::util {

// Builds a table of string cells and renders it either as an aligned text
// table (for console output of paper tables) or as CSV (for plotting).
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);

  // Convenience: formats doubles with the given precision.
  static std::string Cell(double value, int precision = 4);

  size_t num_rows() const { return rows_.size(); }
  size_t num_cols() const { return header_.size(); }

  // Renders an aligned, pipe-separated table.
  std::string ToText() const;

  // Renders RFC-4180-ish CSV (fields containing comma/quote are quoted).
  std::string ToCsv() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace hosr::util

#endif  // HOSR_UTIL_TABLE_H_
