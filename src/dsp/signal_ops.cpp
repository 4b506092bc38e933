#include "dsp/signal_ops.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/math_utils.hpp"

namespace mute::dsp {

double rms(std::span<const Sample> x) {
  if (x.empty()) return 0.0;
  double acc = 0.0;
  for (Sample v : x) acc += static_cast<double>(v) * static_cast<double>(v);
  return std::sqrt(acc / static_cast<double>(x.size()));
}

double rms_db(std::span<const Sample> x) { return amplitude_to_db(rms(x)); }

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

Signal mix(std::span<const Sample> a, std::span<const Sample> b, double gain) {
  Signal out(std::max(a.size(), b.size()), 0.0f);
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i];
  for (std::size_t i = 0; i < b.size(); ++i) {
    out[i] = static_cast<Sample>(static_cast<double>(out[i]) +
                                 gain * static_cast<double>(b[i]));
  }
  return out;
}

Signal subtract(std::span<const Sample> a, std::span<const Sample> b) {
  ensure(a.size() == b.size(), "subtract requires equal lengths");
  Signal out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = static_cast<Sample>(static_cast<double>(a[i]) -
                                 static_cast<double>(b[i]));
  }
  return out;
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
