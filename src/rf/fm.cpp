#include "rf/fm.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/math_utils.hpp"

namespace mute::rf {

FmModulator::FmModulator(double deviation_hz, double sample_rate)
    : deviation_(deviation_hz), fs_(sample_rate) {
  ensure(deviation_hz > 0, "deviation must be positive");
  ensure(deviation_hz < sample_rate / 2,
         "deviation must fit inside the baseband bandwidth");
}

Complex FmModulator::modulate(Sample m) {
  MUTE_CHECK_FINITE(m, "FM modulator input sample");
  MUTE_RT_SCOPE("FmModulator::modulate");
  phase_ = wrap_phase(phase_ +
                      kTwoPi * deviation_ * static_cast<double>(m) / fs_);
  return std::polar(1.0, phase_);
}

ComplexSignal FmModulator::modulate(std::span<const Sample> m) {
  ComplexSignal out(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) out[i] = modulate(m[i]);
  return out;
}

FmDemodulator::FmDemodulator(double deviation_hz, double sample_rate,
                             double dc_block_hz)
    : deviation_(deviation_hz), fs_(sample_rate),
      dc_block_(mute::dsp::Biquad::highpass(dc_block_hz, 0.707, sample_rate)) {
  ensure(deviation_hz > 0, "deviation must be positive");
}

Sample FmDemodulator::demodulate(Complex r) {
  MUTE_CHECK_FINITE(r.real(), "FM demodulator baseband sample (I)");
  MUTE_CHECK_FINITE(r.imag(), "FM demodulator baseband sample (Q)");
  MUTE_RT_SCOPE("FmDemodulator::demodulate");
  // Phase difference between consecutive phasors; magnitude is discarded
  // (hard limiter), which is what grants AM-distortion immunity.
  const Complex d = r * std::conj(prev_);
  prev_ = r;
  const double dphi = std::atan2(d.imag(), d.real());
  const double hz = dphi * fs_ / kTwoPi;
  const double m = hz / deviation_;
  return dc_block_.process(static_cast<Sample>(m));
}

Signal FmDemodulator::demodulate(std::span<const Complex> r) {
  Signal out(r.size());
  for (std::size_t i = 0; i < r.size(); ++i) out[i] = demodulate(r[i]);
  return out;
}

}  // namespace mute::rf
