#pragma once

#include <cstddef>

#include "common/rt_annotations.hpp"
#include "dsp/kernels.hpp"

namespace mute::adaptive {

/// NLMS regularizer: the step divides by the window power plus this.
inline constexpr double kNlmsEpsilon = 1e-6;

/// Running ||window||^2 of a newest-first window of `taps` samples, the
/// NLMS denominator: O(1) add/subtract per push, re-synced by an exact
/// kernel recompute every `taps` pushes so the rounding residue cannot
/// accumulate (DESIGN.md §10.3).
class WindowPower {
 public:
  /// `x_new` entered the window (already in `window`), `x_old` left it.
  MUTE_RT_SAFE void push(double x_new, double x_old, const double* window,
                         std::size_t taps) {
    if (++pushes_since_sync_ >= taps) {
      pushes_since_sync_ = 0;
      power_ = dsp::kernels::energy(window, taps);
    } else {
      power_ += x_new * x_new - x_old * x_old;
    }
  }
  double value() const { return power_; }
  void reset() { *this = {}; }

 private:
  double power_ = 0.0;
  std::size_t pushes_since_sync_ = 0;
};

}  // namespace mute::adaptive
