#pragma once

#include "common/types.hpp"

namespace mute::rf {

/// Numerically-controlled oscillator producing unit-magnitude complex
/// phasors: a fixed-frequency test carrier (e.g. a constant frequency
/// offset to rotate a baseband signal by).
class Nco {
 public:
  Nco(double freq_hz, double sample_rate);

  /// Next phasor e^{j phase}; advances by 2*pi*f/fs.
  Complex tick();

 private:
  double freq_;
  double fs_;
  double phase_ = 0.0;
};

}  // namespace mute::rf
