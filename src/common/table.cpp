#include "common/table.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/check.hpp"

namespace hq {

void TextTable::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void TextTable::add_row(std::vector<std::string> row) {
  if (!header_.empty()) {
    HQ_CHECK_MSG(row.size() == header_.size(),
                 "row has " << row.size() << " cells, header has "
                            << header_.size());
  }
  rows_.push_back(Row{std::move(row), false});
}

void TextTable::add_separator() { rows_.push_back(Row{{}, true}); }

std::string TextTable::render() const {
  std::vector<std::size_t> widths;
  auto widen = [&widths](const std::vector<std::string>& cells) {
    if (cells.size() > widths.size()) widths.resize(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      widths[i] = std::max(widths[i], cells[i].size());
    }
  };
  widen(header_);
  for (const auto& row : rows_) {
    if (!row.separator) widen(row.cells);
  }

  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;

  std::ostringstream os;
  auto emit = [&os, &widths](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      os << std::left << std::setw(static_cast<int>(widths[i]) + 2) << cells[i];
    }
    os << '\n';
  };
  if (!header_.empty()) {
    emit(header_);
    os << std::string(total, '-') << '\n';
  }
  for (const auto& row : rows_) {
    if (row.separator) {
      os << std::string(total, '-') << '\n';
    } else {
      emit(row.cells);
    }
  }
  return os.str();
}

std::string format_fixed(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string format_double(double v) {
  // Non-finite values (zero-duration runs, empty sample windows) would
  // serialize as bare nan/inf tokens, which are not JSON; clamp to 0.
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  return std::string(buf, ptr);
}

std::string format_percent(double ratio, int precision) {
  std::ostringstream os;
  os << (ratio >= 0 ? "+" : "") << std::fixed << std::setprecision(precision)
     << ratio * 100.0 << "%";
  return os.str();
}

}  // namespace hq
