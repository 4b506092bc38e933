#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace mute::eval {

/// Fixed-width text table for benchmark output (the repo's figures are
/// regenerated as printed series, one bench binary per paper figure).
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Convenience for numeric rows (fixed precision).
  void add_row(const std::string& label, std::span<const double> values,
               int precision = 2);

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision.
std::string fmt(double value, int precision = 2);

/// Print an ASCII line chart of one or more named series sharing an
/// x-axis. Used to eyeball the figure shapes straight from the terminal.
struct Series {
  std::string name;
  std::vector<double> y;
};

void print_ascii_chart(std::ostream& os, std::span<const double> x,
                       std::span<const Series> series,
                       const std::string& x_label,
                       const std::string& y_label, int width = 72,
                       int height = 18);

}  // namespace mute::eval
