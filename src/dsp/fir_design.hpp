#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "dsp/window.hpp"

namespace mute::dsp {

/// Windowed-sinc lowpass FIR design.
/// `cutoff_hz` is the -6 dB edge; `taps` must be odd for a symmetric
/// (linear-phase) type-I filter.
std::vector<double> design_lowpass(double cutoff_hz, double sample_rate,
                                   std::size_t taps,
                                   WindowType window = WindowType::kHamming);

/// Frequency-sampling design: build a linear-phase FIR whose magnitude
/// response approximates `magnitude[i]` at frequency `freq_hz[i]`.
/// Magnitudes are linear (not dB) and interpolated onto a uniform grid.
std::vector<double> design_from_magnitude(std::span<const double> freq_hz,
                                          std::span<const double> magnitude,
                                          double sample_rate,
                                          std::size_t taps);

/// Fractional-delay FIR: windowed-sinc interpolator realizing a total delay
/// of exactly `delay_samples` (may be non-integer). Requires
/// 0 <= delay_samples <= taps - 1; accuracy is best when the delay sits
/// near the center of the filter, i.e. taps >= 2*delay_samples for short
/// delays or delay_samples >= (taps-1)/2 surrounded by enough room.
std::vector<double> design_fractional_delay(double delay_samples,
                                            std::size_t taps,
                                            WindowType window = WindowType::kBlackman);

/// Complex frequency response of an FIR filter at `freq_hz`.
Complex fir_response(std::span<const double> h, double freq_hz,
                     double sample_rate);

}  // namespace mute::dsp
