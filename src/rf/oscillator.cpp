#include "rf/oscillator.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math_utils.hpp"

namespace mute::rf {

Nco::Nco(double freq_hz, double sample_rate)
    : freq_(freq_hz), fs_(sample_rate) {
  ensure(sample_rate > 0, "sample rate must be positive");
}

Complex Nco::tick() {
  const Complex out = std::polar(1.0, phase_);
  phase_ = wrap_phase(phase_ + kTwoPi * freq_ / fs_);
  return out;
}

}  // namespace mute::rf
