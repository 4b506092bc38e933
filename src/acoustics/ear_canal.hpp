#pragma once

#include <span>

#include "common/types.hpp"
#include "dsp/biquad.hpp"
#include "dsp/delay_line.hpp"

namespace mute::acoustics {

/// Ear-canal acoustics between the error-microphone position (outside the
/// canal) and the ear-drum — the paper's Section 6 "Cancellation at the
/// Human Ear" limitation: MUTE optimizes at the error mic and *assumes*
/// the drum is close enough, while Bose designs against KEMAR-style ear
/// models.
///
/// Model: an open-ended tube ~2.5 cm long: a propagation delay plus the
/// quarter-wave resonance (~3 kHz, the well-known ear-canal gain of
/// roughly +15 dB) and a mild second resonance. Anti-noise and ambient
/// noise pass through the SAME canal, so cancellation that is perfect at
/// the canal entrance stays perfect at the drum — the discrepancy the
/// paper worries about comes from the residual's spatial variation, which
/// we model as a small leakage path with canal-length-dependent delay.
class EarCanal {
 public:
  /// `canal_length_m` typical 0.025 m; `mismatch` in [0,1] scales the
  /// leakage path that makes drum pressure differ from mic pressure
  /// (0 = the paper's assumption that the mic hears what the drum hears).
  EarCanal(double canal_length_m, double mismatch, double sample_rate);

  /// Pressure at the drum given the pressure at the error-mic position.
  Sample process(Sample at_mic);
  Signal apply(std::span<const Sample> at_mic);

  /// Resonance gain at `freq_hz` (diagnostic).
  double response_magnitude(double freq_hz) const;

 private:
  double fs_;
  double mismatch_;
  mute::dsp::FractionalDelay delay_;
  mute::dsp::Biquad resonance1_;
  mute::dsp::Biquad resonance2_;
  mute::dsp::FractionalDelay leak_delay_;
};

}  // namespace mute::acoustics
