// ASCII table / CSV formatting for the benchmark harness.
//
// Every bench binary prints the same rows/series the paper's tables and
// figures report; TablePrinter keeps that output aligned and also emits a
// machine-readable CSV block so results can be re-plotted.

#ifndef MBI_UTIL_TABLE_H_
#define MBI_UTIL_TABLE_H_

#include <string>
#include <vector>

namespace mbi {

/// Collects rows of string cells and prints them as an aligned ASCII table.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  /// Appends a row; must have the same arity as the header.
  void AddRow(std::vector<std::string> row);

  /// Renders the aligned table (header, rule, rows).
  std::string ToString() const;

  /// Renders rows as CSV (header first).
  std::string ToCsv() const;

  /// Prints ToString() to stdout.
  void Print() const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style float formatting helpers for table cells.
std::string FormatFloat(double v, int precision = 2);
std::string FormatBytes(size_t bytes);
std::string FormatCount(size_t n);

}  // namespace mbi

#endif  // MBI_UTIL_TABLE_H_
