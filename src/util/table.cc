#include "util/table.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace hosr::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  HOSR_CHECK(!header_.empty());
}

void Table::AddRow(std::vector<std::string> row) {
  HOSR_CHECK(row.size() == header_.size())
      << "row has " << row.size() << " cells, header has " << header_.size();
  rows_.push_back(std::move(row));
}

std::string Table::Cell(double value, int precision) {
  return StrFormat("%.*f", precision, value);
}

std::string Table::ToText() const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (size_t c = 0; c < row.size(); ++c) {
      line += " " + row[c] + std::string(widths[c] - row[c].size(), ' ') + " |";
    }
    return line + "\n";
  };
  std::string separator = "|";
  for (const size_t w : widths) separator += std::string(w + 2, '-') + "|";
  separator += "\n";

  std::string out = render_row(header_);
  out += separator;
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

namespace {
std::string CsvEscape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (const char ch : field) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

std::string Table::ToCsv() const {
  std::string out;
  auto append_row = [&out](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ',';
      out += CsvEscape(row[c]);
    }
    out += '\n';
  };
  append_row(header_);
  for (const auto& row : rows_) append_row(row);
  return out;
}

}  // namespace hosr::util
