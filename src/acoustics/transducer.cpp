#include "acoustics/transducer.hpp"

#include <cmath>

#include "common/error.hpp"

namespace mute::acoustics {

using mute::dsp::Biquad;
using mute::dsp::BiquadCascade;

Transducer::Transducer(BiquadCascade response, double self_noise_rms,
                       std::string label, std::uint64_t noise_seed)
    : response_(std::move(response)), noise_rms_(self_noise_rms),
      label_(std::move(label)), rng_(noise_seed) {
  ensure(self_noise_rms >= 0, "self-noise must be non-negative");
}

Transducer Transducer::cheap_microphone(double sample_rate,
                                        std::uint64_t seed) {
  BiquadCascade c;
  c.push_section(Biquad::highpass(120.0, 0.707, sample_rate));
  c.push_section(Biquad::high_shelf(3200.0, 0.8, -4.0, sample_rate));
  return Transducer(std::move(c), 3.0e-4, "cheap_mic", seed);
}

Transducer Transducer::cheap_speaker(double sample_rate, std::uint64_t seed) {
  BiquadCascade c;
  c.push_section(Biquad::highpass(150.0, 0.9, sample_rate));
  c.push_section(Biquad::peaking(260.0, 2.0, 3.0, sample_rate));
  c.push_section(Biquad::high_shelf(3500.0, 0.8, -6.0, sample_rate));
  return Transducer(std::move(c), 3.0e-5, "cheap_speaker", seed);
}

Transducer Transducer::premium_microphone(double sample_rate,
                                          std::uint64_t seed) {
  BiquadCascade c;
  c.push_section(Biquad::highpass(30.0, 0.707, sample_rate));
  return Transducer(std::move(c), 5.0e-5, "premium_mic", seed);
}

Transducer Transducer::premium_speaker(double sample_rate,
                                       std::uint64_t seed) {
  BiquadCascade c;
  c.push_section(Biquad::highpass(30.0, 0.707, sample_rate));
  return Transducer(std::move(c), 2.0e-5, "premium_speaker", seed);
}

Transducer Transducer::ideal(std::uint64_t seed) {
  return Transducer(BiquadCascade{}, 0.0, "ideal", seed);
}

Transducer Transducer::ambient_speaker(double sample_rate,
                                       std::uint64_t seed) {
  BiquadCascade c;
  c.push_section(Biquad::highpass(90.0, 0.8, sample_rate));
  return Transducer(std::move(c), 1.0e-5, "ambient_speaker", seed);
}

Sample Transducer::process(Sample x) {
  const double filtered = static_cast<double>(response_.process(x));
  return static_cast<Sample>(filtered + rng_.gaussian(noise_rms_));
}

Signal Transducer::apply(std::span<const Sample> in) {
  Signal out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = process(in[i]);
  return out;
}

double Transducer::response_magnitude(double freq_hz,
                                      double sample_rate) const {
  if (response_.section_count() == 0) return 1.0;
  return std::abs(response_.response(freq_hz, sample_rate));
}

}  // namespace mute::acoustics
