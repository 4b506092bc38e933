#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "adaptive/nlms.hpp"
#include "common/rt_annotations.hpp"
#include "common/types.hpp"
#include "dsp/ring_history.hpp"

namespace mute::adaptive {

/// Classic transversal adaptive FIR (NLMS): the step `mu` is divided by
/// the input window power plus kNlmsEpsilon.
///
/// Usage pattern (system identification): feed the input sample, get the
/// prediction, then call `update` with the desired value. The filter
/// estimates w such that w * x ≈ d.
class AdaptiveFir {
 public:
  AdaptiveFir(std::size_t taps, double mu = 0.05);

  /// Push the newest input sample and return the current prediction
  /// y(t) = w · [x(t), x(t-1), ...].
  MUTE_RT_SAFE Sample predict(Sample x);

  /// Adapt toward desired d(t) for the most recent prediction; returns the
  /// a-priori error d - y.
  MUTE_RT_SAFE Sample update(Sample desired);

  /// Convenience: predict + update in one call.
  MUTE_RT_SAFE Sample step(Sample x, Sample desired);

  const std::vector<double>& weights() const { return w_; }
  MUTE_RT_UNSAFE void set_weights(std::span<const double> w);
  void reset();

  std::size_t tap_count() const { return w_.size(); }

 private:
  double mu_;
  std::vector<double> w_;
  dsp::RingHistory<double> x_;  // newest-first window aligned with w_
  WindowPower power_;
  double last_y_ = 0.0;
};

/// Misalignment ||w - w_true||^2 / ||w_true||^2 in dB (system-id quality).
double misalignment_db(std::span<const double> w,
                       std::span<const double> w_true);

}  // namespace mute::adaptive
