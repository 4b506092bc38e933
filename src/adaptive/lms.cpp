#include "adaptive/lms.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "dsp/kernels.hpp"

namespace mute::adaptive {

AdaptiveFir::AdaptiveFir(std::size_t taps, double mu)
    : mu_(mu), w_(taps, 0.0), x_(taps) {
  ensure(taps >= 1, "need at least one tap");
  ensure(mu > 0, "mu must be positive");
}

Sample AdaptiveFir::predict(Sample x) {
  // O(1) history slide (newest at window index 0).
  const double x_old = x_.oldest();
  x_.push(static_cast<double>(x));
  power_.push(static_cast<double>(x), x_old, x_.data(), w_.size());
  const double y = dsp::kernels::dot(w_.data(), x_.data(), w_.size());
  last_y_ = y;
  return static_cast<Sample>(y);
}

Sample AdaptiveFir::update(Sample desired) {
  const double e = static_cast<double>(desired) - last_y_;
  const double denom = std::max(power_.value(), 0.0) + kNlmsEpsilon;
  const double g = mu_ * e / denom;
  dsp::kernels::scaled_accumulate(w_.data(), x_.data(), g, w_.size());
  return static_cast<Sample>(e);
}

Sample AdaptiveFir::step(Sample x, Sample desired) {
  predict(x);
  return update(desired);
}

void AdaptiveFir::set_weights(std::span<const double> w) {
  ensure(w.size() == w_.size(), "weight size mismatch");
  std::copy(w.begin(), w.end(), w_.begin());
}

void AdaptiveFir::reset() {
  std::fill(w_.begin(), w_.end(), 0.0);
  x_.fill(0.0);
  power_.reset();
  last_y_ = 0.0;
}

double misalignment_db(std::span<const double> w,
                       std::span<const double> w_true) {
  ensure(w.size() == w_true.size(), "weight size mismatch");
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double d = w[i] - w_true[i];
    num += d * d;
    den += w_true[i] * w_true[i];
  }
  return power_to_db(num / std::max(den, 1e-30));
}

}  // namespace mute::adaptive
