#include "sim/passive.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math_utils.hpp"

namespace mute::sim {

using mute::dsp::Biquad;

PassiveShell::PassiveShell(double sample_rate)
    : fs_(sample_rate), broadband_gain_(db_to_amplitude(-4.5)) {
  ensure(sample_rate > 0, "sample rate must be positive");
  // Stacked high-shelf cuts: each adds attenuation above its corner, so
  // the total loss grows from ~4.5 dB at LF to ~22 dB at 4 kHz — tuned so
  // a Bose_Overall (active LF + shell HF) run averages near the paper's
  // -15 dB.
  shelves_.push_section(Biquad::high_shelf(450.0, 0.7, -9.0, sample_rate));
  shelves_.push_section(Biquad::high_shelf(1800.0, 0.7, -9.0, sample_rate));
}

Signal PassiveShell::apply(std::span<const Sample> outside) {
  Signal out(outside.size());
  for (std::size_t i = 0; i < outside.size(); ++i) {
    out[i] = process(outside[i]);
  }
  return out;
}

Sample PassiveShell::process(Sample x) {
  return static_cast<Sample>(broadband_gain_ *
                             static_cast<double>(shelves_.process(x)));
}

double PassiveShell::insertion_loss_db(double freq_hz) const {
  const double mag =
      broadband_gain_ * std::abs(shelves_.response(freq_hz, fs_));
  return -amplitude_to_db(mag);
}

}  // namespace mute::sim
