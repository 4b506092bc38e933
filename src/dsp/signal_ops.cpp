#include "dsp/signal_ops.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace mute::dsp {

double rms(std::span<const Sample> x) {
  if (x.empty()) return 0.0;
  double acc = 0.0;
  for (Sample v : x) acc += static_cast<double>(v) * static_cast<double>(v);
  return std::sqrt(acc / static_cast<double>(x.size()));
}

double peak(std::span<const Sample> x) {
  double p = 0.0;
  for (Sample v : x) p = std::max(p, std::abs(static_cast<double>(v)));
  return p;
}

void normalize_rms(std::span<Sample> x, double target_rms) {
  ensure(target_rms >= 0, "target RMS must be non-negative");
  const double current = rms(x);
  if (current < 1e-12) return;
  const double g = target_rms / current;
  for (Sample& v : x) v = static_cast<Sample>(static_cast<double>(v) * g);
}

Signal delay_signal(std::span<const Sample> x, std::size_t n) {
  Signal out(x.size() + n, 0.0f);
  std::copy(x.begin(), x.end(), out.begin() + static_cast<std::ptrdiff_t>(n));
  return out;
}

double mean(std::span<const Sample> x) {
  if (x.empty()) return 0.0;
  double acc = 0.0;
  for (Sample v : x) acc += static_cast<double>(v);
  return acc / static_cast<double>(x.size());
}

void remove_dc(std::span<Sample> x) {
  const double m = mean(x);
  for (Sample& v : x) v = static_cast<Sample>(static_cast<double>(v) - m);
}

}  // namespace mute::dsp
