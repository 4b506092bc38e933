#include "eval/report.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace mute::eval {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  ensure(!headers_.empty(), "table needs headers");
}

void Table::add_row(std::vector<std::string> cells) {
  ensure(cells.size() == headers_.size(), "row width mismatch");
  rows_.push_back(std::move(cells));
}

void Table::add_row(const std::string& label, std::span<const double> values,
                    int precision) {
  ensure(values.size() + 1 == headers_.size(), "row width mismatch");
  std::vector<std::string> cells;
  cells.reserve(values.size() + 1);
  cells.push_back(label);
  for (double v : values) cells.push_back(fmt(v, precision));
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
    for (const auto& row : rows_) width[c] = std::max(width[c], row[c].size());
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "| " : " | ") << std::setw(static_cast<int>(width[c]))
         << cells[c];
    }
    os << " |\n";
  };
  print_row(headers_);
  os << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << std::string(width[c] + 2, '-') << "|";
  }
  os << "\n";
  for (const auto& row : rows_) print_row(row);
}

std::string fmt(double value, int precision) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(precision) << value;
  return ss.str();
}

void print_ascii_chart(std::ostream& os, std::span<const double> x,
                       std::span<const Series> series,
                       const std::string& x_label,
                       const std::string& y_label, int width, int height) {
  ensure(!x.empty() && !series.empty(), "chart needs data");
  for (const auto& s : series) {
    ensure(s.y.size() == x.size(), "series length mismatch");
  }
  double y_min = 1e300, y_max = -1e300;
  for (const auto& s : series) {
    for (double v : s.y) {
      y_min = std::min(y_min, v);
      y_max = std::max(y_max, v);
    }
  }
  if (y_max - y_min < 1e-9) {
    y_max = y_min + 1.0;
  }
  const double pad = 0.05 * (y_max - y_min);
  y_min -= pad;
  y_max += pad;

  static const char kMarks[] = {'*', 'o', '+', 'x', '#', '@'};
  std::vector<std::string> canvas(static_cast<std::size_t>(height),
                                  std::string(static_cast<std::size_t>(width), ' '));
  for (std::size_t s = 0; s < series.size(); ++s) {
    const char mark = kMarks[s % sizeof(kMarks)];
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double fx = (x[i] - x.front()) /
                        std::max(x.back() - x.front(), 1e-12);
      const double fy = (series[s].y[i] - y_min) / (y_max - y_min);
      const int cx = std::clamp(static_cast<int>(fx * (width - 1)), 0,
                                width - 1);
      const int cy = std::clamp(static_cast<int>((1.0 - fy) * (height - 1)),
                                0, height - 1);
      canvas[static_cast<std::size_t>(cy)][static_cast<std::size_t>(cx)] = mark;
    }
  }

  os << "  " << y_label << "\n";
  for (int r = 0; r < height; ++r) {
    const double yv = y_max - (y_max - y_min) * r / (height - 1);
    os << std::setw(8) << fmt(yv, 1) << " |" << canvas[static_cast<std::size_t>(r)]
       << "\n";
  }
  os << std::string(10, ' ') << std::string(static_cast<std::size_t>(width), '-')
     << "\n";
  os << std::setw(10) << fmt(x.front(), 0)
     << std::string(static_cast<std::size_t>(width) - 12, ' ')
     << fmt(x.back(), 0) << "  (" << x_label << ")\n";
  for (std::size_t s = 0; s < series.size(); ++s) {
    os << "    " << kMarks[s % sizeof(kMarks)] << " = " << series[s].name
       << "\n";
  }
}

}  // namespace mute::eval
