// Fixed-width text table printer used by the figure/table bench binaries to
// emit the paper's rows in a readable, diffable form.
#pragma once

#include <string>
#include <vector>

namespace hq {

/// Accumulates rows of cells and renders them with aligned columns.
class TextTable {
 public:
  /// Sets the header row; column count is inferred from it.
  void set_header(std::vector<std::string> header);

  /// Appends a data row; must match the header's column count if one is set.
  void add_row(std::vector<std::string> row);

  /// Appends a horizontal separator line.
  void add_separator();

  /// Renders the table as a string (ASCII, two-space gutters).
  std::string render() const;

  std::size_t row_count() const { return rows_.size(); }

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separator = false;
  };
  std::vector<std::string> header_;
  std::vector<Row> rows_;
};

/// Formats a double with the given precision (fixed notation).
std::string format_fixed(double value, int precision);

/// Shortest round-trip decimal rendering of a double (std::to_chars), with
/// non-finite values clamped to 0 — the deterministic formatter every
/// exporter and journal uses, so strtod reads back the identical bits.
std::string format_double(double v);

/// Formats a ratio as a signed percentage, e.g. 0.318 -> "+31.8%".
std::string format_percent(double ratio, int precision = 1);

}  // namespace hq
