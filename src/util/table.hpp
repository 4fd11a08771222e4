#pragma once
/// \file table.hpp
/// \brief ASCII table printer for benchmark and experiment output.
///
/// Renders bench and example results as aligned monospace tables that are
/// easy to diff.

#include <cstdio>
#include <string>
#include <vector>

namespace qforest {

/// Column-aligned ASCII table builder.
class Table {
 public:
  /// Create a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Append a fully formatted row; must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Convenience: format a double with \p precision digits.
  static std::string fmt(double value, int precision = 4);
  /// Convenience: format an integer.
  static std::string fmt(long long value);

  /// Render to a string with a separator under the header.
  [[nodiscard]] std::string to_string() const;

  /// Render to \p stream (default stdout).
  void print(std::FILE* stream = stdout) const;

  /// Number of data rows added so far.
  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace qforest
