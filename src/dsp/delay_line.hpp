#pragma once

#include <cstddef>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/rt_annotations.hpp"
#include "common/types.hpp"
#include "dsp/fir_design.hpp"
#include "dsp/fir_filter.hpp"

namespace mute::dsp {

/// Integer-sample delay line. A delay of 0 is the identity.
/// This is the "delayed line buffer" used by the paper (Section 5.2) to
/// artificially shorten lookahead in the Figure 16 experiment.
class DelayLine {
 public:
  explicit DelayLine(std::size_t delay_samples)
      : buffer_(delay_samples, 0.0f) {}

  MUTE_RT_SAFE Sample process(Sample x) {
    MUTE_CHECK_FINITE(x, "delay line input sample");
    MUTE_RT_SCOPE("DelayLine::process");
    if (buffer_.empty()) return x;
    MUTE_DCHECK(pos_ < buffer_.size(), "delay line cursor out of range");
    const Sample out = buffer_[pos_];
    buffer_[pos_] = x;
    pos_ = (pos_ + 1) % buffer_.size();
    return out;
  }

  std::size_t delay() const { return buffer_.size(); }

 private:
  std::vector<Sample> buffer_;
  std::size_t pos_ = 0;
};

/// Fractional-sample delay implemented as an integer delay plus a
/// windowed-sinc interpolation FIR. Models sub-sample acoustic propagation
/// offsets and converter latencies that are not multiples of 1/fs.
class FractionalDelay {
 public:
  /// `delay_samples` >= 0; `interp_taps` controls interpolation quality
  /// (odd, default 31).
  explicit FractionalDelay(double delay_samples, std::size_t interp_taps = 31)
      : integer_part_(split_integer(delay_samples, interp_taps)),
        coarse_(integer_part_),
        fine_(design_fractional_delay(
            delay_samples - static_cast<double>(integer_part_), interp_taps)),
        total_delay_(delay_samples) {
    ensure(delay_samples >= 0.0, "delay must be non-negative");
  }

  MUTE_RT_SAFE Sample process(Sample x) {
    return fine_.process(coarse_.process(x));
  }

  double total_delay() const { return total_delay_; }

 private:
  /// Keep the fractional FIR's realized delay near the filter center so the
  /// sinc main lobe is well supported: put as much as possible of the delay
  /// into the integer line, leaving [half, half+1) for the interpolator.
  static std::size_t split_integer(double delay_samples,
                                   std::size_t interp_taps) {
    ensure(interp_taps >= 3, "need >= 3 interpolation taps");
    const double half = static_cast<double>(interp_taps - 1) / 2.0;
    if (delay_samples <= half) return 0;
    return static_cast<std::size_t>(delay_samples - half);
  }

  std::size_t integer_part_;
  DelayLine coarse_;
  FirFilter fine_;
  double total_delay_ = 0.0;
};

}  // namespace mute::dsp
