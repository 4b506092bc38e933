#pragma once

#include <cmath>

#include "common/error.hpp"
#include "common/types.hpp"

namespace mute::core {

/// The processing-latency budget of an ANC pipeline (Section 3.1): every
/// microsecond spent in converters, DSP and the speaker eats into the
/// acoustic lookahead. Equation 3: cancellation timing is met only when
/// lookahead >= adc + dsp + dac + speaker.
struct LatencyBudget {
  double adc_us = 30.0;
  double dsp_us = 25.0;
  double dac_us = 30.0;
  double speaker_us = 20.0;

  /// A headphone-class budget (paper: the sum can easily be 3x the 30 us
  /// acoustic window of a conventional headphone).
  static LatencyBudget headphone() { return {30.0, 25.0, 30.0, 20.0}; }

  /// MUTE's ear device: same converters, slightly larger DSP slice since
  /// LANC runs more taps.
  static LatencyBudget mute_ear_device() { return {30.0, 40.0, 30.0, 20.0}; }

  double total_us() const { return adc_us + dsp_us + dac_us + speaker_us; }
  double total_s() const { return total_us() * 1e-6; }
};

/// Usable lookahead after subtracting the processing budget and any
/// wireless-link group delay, in seconds. Negative means the system misses
/// the deadline by that much (a conventional headphone's situation).
inline double usable_lookahead_s(double acoustic_lookahead_s,
                                 const LatencyBudget& budget,
                                 double link_delay_s = 0.0) {
  return acoustic_lookahead_s - budget.total_s() - link_delay_s;
}

/// Convert usable lookahead to whole non-causal taps at `sample_rate`
/// (clamped at zero; the fractional remainder becomes phase error the
/// adaptive filter must absorb).
inline std::size_t lookahead_taps(double usable_s, double sample_rate) {
  ensure(sample_rate > 0, "sample rate must be positive");
  if (usable_s <= 0) return 0;
  return static_cast<std::size_t>(std::floor(usable_s * sample_rate));
}

}  // namespace mute::core
