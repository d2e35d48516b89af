#include "util/table.h"

#include <algorithm>
#include <cstdio>

#include "util/check.h"

namespace mbi {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  MBI_CHECK(row.size() == header_.size());
  rows_.push_back(std::move(row));
}

std::string TablePrinter::ToString() const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string out = "|";
    for (size_t c = 0; c < row.size(); ++c) {
      out += ' ';
      out += row[c];
      out.append(widths[c] - row[c].size(), ' ');
      out += " |";
    }
    out += '\n';
    return out;
  };
  std::string rule = "+";
  for (size_t c = 0; c < widths.size(); ++c) {
    rule.append(widths[c] + 2, '-');
    rule += '+';
  }
  rule += '\n';

  std::string out = rule + render_row(header_) + rule;
  for (const auto& row : rows_) out += render_row(row);
  out += rule;
  return out;
}

std::string TablePrinter::ToCsv() const {
  auto join = [](const std::vector<std::string>& row) {
    std::string out;
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ',';
      out += row[c];
    }
    out += '\n';
    return out;
  };
  std::string out = join(header_);
  for (const auto& row : rows_) out += join(row);
  return out;
}

void TablePrinter::Print() const {
  std::fputs(ToString().c_str(), stdout);
  std::fflush(stdout);
}

std::string FormatFloat(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string FormatBytes(size_t bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 3) {
    v /= 1024.0;
    ++u;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f %s", v, units[u]);
  return buf;
}

std::string FormatCount(size_t n) {
  // Groups digits with commas: 1234567 -> "1,234,567".
  std::string digits = std::to_string(n);
  std::string out;
  int seen = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (seen > 0 && seen % 3 == 0) out += ',';
    out += *it;
    ++seen;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace mbi
