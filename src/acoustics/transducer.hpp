#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "dsp/biquad.hpp"

namespace mute::acoustics {

/// Electro-acoustic transducer model: a linear frequency-response filter
/// plus additive self-noise. Models both microphones and loudspeakers.
///
/// The paper's hardware comparison hinges on this: MUTE uses a $9 MEMS mic
/// and a $19 computer speaker with weak response below 100 Hz (their
/// Figure 13), while Bose ships specialized low-noise transducers. The
/// `cheap_*` presets reproduce the former, `premium_*` the latter.
class Transducer {
 public:
  Transducer(mute::dsp::BiquadCascade response, double self_noise_rms,
             std::string label, std::uint64_t noise_seed);

  /// SparkFun ADMP401-like MEMS microphone: 2nd-order highpass near 120 Hz,
  /// gentle top-octave droop, audible self-noise.
  static Transducer cheap_microphone(double sample_rate, std::uint64_t seed);

  /// AmazonBasics-like mini speaker: steep low-frequency loss below
  /// ~150 Hz, resonance bump near 250 Hz, rolloff past 3.5 kHz.
  static Transducer cheap_speaker(double sample_rate, std::uint64_t seed);

  /// Premium (Bose-like) microphone: flat from 30 Hz, very low noise.
  static Transducer premium_microphone(double sample_rate, std::uint64_t seed);

  /// Premium (Bose-like) driver: flat from 30 Hz.
  static Transducer premium_speaker(double sample_rate, std::uint64_t seed);

  /// Ideal transducer (identity, noiseless) for algorithm-only studies.
  static Transducer ideal(std::uint64_t seed);

  /// The ambient playback speaker (the paper's Xtrememac IPU-TRX-11): all
  /// evaluation noises physically enter the room through it, so nothing
  /// below its ~90 Hz corner exists in the air to begin with.
  static Transducer ambient_speaker(double sample_rate, std::uint64_t seed);

  /// Filter + add self-noise, streaming.
  Sample process(Sample x);

  /// Whole-signal convenience.
  Signal apply(std::span<const Sample> in);

  /// Magnitude response at `freq_hz` (no noise term).
  double response_magnitude(double freq_hz, double sample_rate) const;

  double self_noise_rms() const { return noise_rms_; }
  const std::string& label() const { return label_; }

 private:
  mute::dsp::BiquadCascade response_;
  double noise_rms_;
  std::string label_;
  Rng rng_;
};

}  // namespace mute::acoustics
