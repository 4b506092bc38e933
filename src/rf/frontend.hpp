#pragma once

#include <span>

#include "common/types.hpp"
#include "dsp/biquad.hpp"

namespace mute::rf {

/// Analog audio front end of the relay (Figure 9, left half): anti-alias
/// low-pass filter followed by a soft-clipping amplifier. All analog — the
/// relay never digitizes or stores samples (the paper's privacy argument).
class AudioFrontEnd {
 public:
  /// `cutoff_hz` bounds the forwarded audio bandwidth (paper: ~8 kHz
  /// occupied RF bandwidth); `gain` is the preamp gain; `clip_level` the
  /// soft saturation point.
  AudioFrontEnd(double cutoff_hz, double gain, double clip_level,
                double sample_rate);

  Sample process(Sample x);
  Signal process(std::span<const Sample> x);

  double gain() const { return gain_; }

 private:
  mute::dsp::Biquad lpf1_, lpf2_;  // 4th-order Butterworth-ish LPF
  double gain_;
  double clip_;
};

/// RF power amplifier with tanh saturation (third-order-style
/// nonlinearity). For a constant-envelope FM signal this only compresses
/// amplitude — the embedded frequency information survives, which is why
/// the paper picked FM over AM. `backoff_db` sets how far the unit-power
/// signal sits below the saturation point.
class PowerAmplifier {
 public:
  explicit PowerAmplifier(double backoff_db);

  Complex process(Complex x) const;
  ComplexSignal process(std::span<const Complex> x) const;

 private:
  double sat_level_;
};

/// Band-pass (modeled at baseband as low-pass) channel-selection filter of
/// the receiver, limiting noise bandwidth before FM demodulation.
class ChannelSelectFilter {
 public:
  ChannelSelectFilter(double bandwidth_hz, double sample_rate);

  Complex process(Complex x);
  ComplexSignal process(std::span<const Complex> x);

 private:
  mute::dsp::Biquad re1_, re2_, im1_, im2_;
};

}  // namespace mute::rf
