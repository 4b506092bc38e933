#include "rf/frontend.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math_utils.hpp"

namespace mute::rf {

using mute::dsp::Biquad;

AudioFrontEnd::AudioFrontEnd(double cutoff_hz, double gain, double clip_level,
                             double sample_rate)
    : lpf1_(Biquad::lowpass(cutoff_hz, 0.5412, sample_rate)),
      lpf2_(Biquad::lowpass(cutoff_hz, 1.3066, sample_rate)),
      gain_(gain), clip_(clip_level) {
  ensure(gain > 0, "gain must be positive");
  ensure(clip_level > 0, "clip level must be positive");
}

Sample AudioFrontEnd::process(Sample x) {
  const double filtered =
      static_cast<double>(lpf2_.process(lpf1_.process(x)));
  // Soft clip: linear for small signals, saturates at +-clip_.
  return static_cast<Sample>(clip_ * std::tanh(gain_ * filtered / clip_));
}

Signal AudioFrontEnd::process(std::span<const Sample> x) {
  Signal out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = process(x[i]);
  return out;
}

PowerAmplifier::PowerAmplifier(double backoff_db)
    : sat_level_(db_to_amplitude(backoff_db)) {
  ensure(backoff_db >= 0, "backoff must be >= 0 dB");
}

Complex PowerAmplifier::process(Complex x) const {
  const double mag = std::abs(x);
  if (mag < 1e-15) return x;
  const double compressed = sat_level_ * std::tanh(mag / sat_level_);
  return x * (compressed / mag);
}

ComplexSignal PowerAmplifier::process(std::span<const Complex> x) const {
  ComplexSignal out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = process(x[i]);
  return out;
}

ChannelSelectFilter::ChannelSelectFilter(double bandwidth_hz,
                                         double sample_rate)
    : re1_(Biquad::lowpass(bandwidth_hz / 2.0, 0.5412, sample_rate)),
      re2_(Biquad::lowpass(bandwidth_hz / 2.0, 1.3066, sample_rate)),
      im1_(Biquad::lowpass(bandwidth_hz / 2.0, 0.5412, sample_rate)),
      im2_(Biquad::lowpass(bandwidth_hz / 2.0, 1.3066, sample_rate)) {}

Complex ChannelSelectFilter::process(Complex x) {
  const double re = static_cast<double>(
      re2_.process(re1_.process(static_cast<Sample>(x.real()))));
  const double im = static_cast<double>(
      im2_.process(im1_.process(static_cast<Sample>(x.imag()))));
  return {re, im};
}

ComplexSignal ChannelSelectFilter::process(std::span<const Complex> x) {
  ComplexSignal out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = process(x[i]);
  return out;
}

}  // namespace mute::rf
