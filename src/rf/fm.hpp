#pragma once

#include <span>

#include "common/types.hpp"
#include "dsp/biquad.hpp"

namespace mute::rf {

/// Frequency modulator at complex baseband: the instantaneous frequency of
/// the output phasor is `deviation_hz * m(t)` (Equation 9 of the paper with
/// the carrier removed — up-conversion is handled by the channel model).
class FmModulator {
 public:
  FmModulator(double deviation_hz, double sample_rate);

  Complex modulate(Sample m);
  ComplexSignal modulate(std::span<const Sample> m);
  void reset();

  double deviation_hz() const { return deviation_; }

 private:
  double deviation_;
  double fs_;
  double phase_ = 0.0;
};

/// FM discriminator: differentiates the phase of the incoming baseband
/// phasor. A constant carrier frequency offset appears as a constant
/// output offset, which the built-in DC blocker removes — exactly the CFO
/// immunity argument of Section 4.1. Amplitude variations are rejected by
/// the atan2-based phase extraction (limiter behaviour).
class FmDemodulator {
 public:
  /// `dc_block_hz` sets the DC-removal highpass corner (must be below the
  /// lowest audio frequency of interest).
  FmDemodulator(double deviation_hz, double sample_rate,
                double dc_block_hz = 10.0);

  Sample demodulate(Complex r);
  Signal demodulate(std::span<const Complex> r);
  void reset();

 private:
  double deviation_;
  double fs_;
  Complex prev_{1.0, 0.0};
  mute::dsp::Biquad dc_block_;
};

}  // namespace mute::rf
