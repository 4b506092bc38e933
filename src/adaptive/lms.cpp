#include "adaptive/lms.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "dsp/kernels.hpp"

namespace mute::adaptive {

AdaptiveFir::AdaptiveFir(std::size_t taps, LmsOptions options)
    : opts_(options), w_(taps, 0.0), x_(taps) {
  ensure(taps >= 1, "need at least one tap");
  ensure(options.mu > 0, "mu must be positive");
  ensure(options.epsilon > 0, "epsilon must be positive");
  ensure(options.leakage >= 0 && options.leakage < 1, "leakage in [0,1)");
}

Sample AdaptiveFir::predict(Sample x) {
  // O(1) history slide (newest at window index 0).
  const double x_old = x_.oldest();
  x_.push(static_cast<double>(x));
  if (++pushes_since_power_sync_ >= w_.size()) {
    pushes_since_power_sync_ = 0;
    power_ = dsp::kernels::energy(x_.data(), w_.size());
  } else {
    power_ += static_cast<double>(x) * static_cast<double>(x) - x_old * x_old;
  }
  const double y = dsp::kernels::dot(w_.data(), x_.data(), w_.size());
  last_y_ = y;
  return static_cast<Sample>(y);
}

Sample AdaptiveFir::update(Sample desired) {
  const double e = static_cast<double>(desired) - last_y_;
  const double denom = std::max(power_, 0.0) + opts_.epsilon;
  const double g = opts_.mu * e / denom;
  const double keep = 1.0 - opts_.mu * opts_.leakage;
  dsp::kernels::axpy_leaky_norm(w_.data(), x_.data(), keep, g, w_.size());
  return static_cast<Sample>(e);
}

Sample AdaptiveFir::step(Sample x, Sample desired) {
  predict(x);
  return update(desired);
}

Signal AdaptiveFir::identify(std::span<const Sample> x,
                             std::span<const Sample> d) {
  ensure(x.size() == d.size(), "signal lengths must match");
  Signal err(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) err[i] = step(x[i], d[i]);
  return err;
}

void AdaptiveFir::set_weights(std::span<const double> w) {
  ensure(w.size() == w_.size(), "weight size mismatch");
  std::copy(w.begin(), w.end(), w_.begin());
}

void AdaptiveFir::reset() {
  std::fill(w_.begin(), w_.end(), 0.0);
  x_.fill(0.0);
  power_ = 0.0;
  last_y_ = 0.0;
  pushes_since_power_sync_ = 0;
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
