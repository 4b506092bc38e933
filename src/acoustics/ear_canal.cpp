#include "acoustics/ear_canal.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math_utils.hpp"

namespace mute::acoustics {

namespace {

double quarter_wave_hz(double length_m) {
  return kSpeedOfSound / (4.0 * length_m);
}

}  // namespace

EarCanal::EarCanal(double canal_length_m, double mismatch, double sample_rate)
    : fs_(sample_rate), mismatch_(mismatch),
      delay_(canal_length_m / kSpeedOfSound * sample_rate, 21),
      resonance1_(mute::dsp::Biquad::peaking(
          std::min(quarter_wave_hz(canal_length_m), 0.45 * sample_rate), 2.0,
          15.0, sample_rate)),
      resonance2_(mute::dsp::Biquad::peaking(
          std::min(3.0 * quarter_wave_hz(canal_length_m), 0.45 * sample_rate),
          3.0, 5.0, sample_rate)),
      leak_delay_(canal_length_m / kSpeedOfSound * sample_rate * 2.0 + 1.0,
                  21) {
  ensure(canal_length_m > 0.005 && canal_length_m < 0.05,
         "canal length outside anatomical range");
  ensure(mismatch >= 0.0 && mismatch <= 1.0, "mismatch in [0,1]");
  ensure(sample_rate > 0, "sample rate must be positive");
}

Sample EarCanal::process(Sample at_mic) {
  const Sample delayed = delay_.process(at_mic);
  const Sample resonant = resonance2_.process(resonance1_.process(delayed));
  // Leakage: a second, longer path (reflection from the drum) that makes
  // the drum pressure differ from a pure filtered copy of the mic signal.
  const Sample leak = leak_delay_.process(at_mic);
  return static_cast<Sample>((1.0 - 0.3 * mismatch_) *
                                 static_cast<double>(resonant) +
                             0.3 * mismatch_ * static_cast<double>(leak));
}

Signal EarCanal::apply(std::span<const Sample> at_mic) {
  Signal out(at_mic.size());
  for (std::size_t i = 0; i < at_mic.size(); ++i) out[i] = process(at_mic[i]);
  return out;
}

double EarCanal::response_magnitude(double freq_hz) const {
  return std::abs(resonance1_.response(freq_hz, fs_) *
                  resonance2_.response(freq_hz, fs_));
}

}  // namespace mute::acoustics
