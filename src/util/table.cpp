#include "util/table.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace qforest {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  assert(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

std::string Table::fmt(long long value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", value);
  return buf;
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += row[c];
      line.append(widths[c] - row[c].size(), ' ');
      if (c + 1 < row.size()) {
        line += "  ";
      }
    }
    line += '\n';
    return line;
  };

  std::string out = render_row(headers_);
  std::string sep;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    sep.append(widths[c], '-');
    if (c + 1 < widths.size()) {
      sep += "  ";
    }
  }
  out += sep + '\n';
  for (const auto& row : rows_) {
    out += render_row(row);
  }
  return out;
}

void Table::print(std::FILE* stream) const {
  const std::string s = to_string();
  std::fwrite(s.data(), 1, s.size(), stream);
  std::fflush(stream);
}

}  // namespace qforest
