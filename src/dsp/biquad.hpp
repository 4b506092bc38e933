#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/rt_annotations.hpp"
#include "common/types.hpp"

namespace mute::dsp {

/// Second-order IIR section, transposed direct form II.
/// Normalized so a0 == 1: y = b0 x + b1 x1 + b2 x2 - a1 y1 - a2 y2.
class Biquad {
 public:
  Biquad(double b0, double b1, double b2, double a1, double a2);

  /// RBJ audio-EQ-cookbook designs.
  static Biquad lowpass(double freq_hz, double q, double sample_rate);
  static Biquad highpass(double freq_hz, double q, double sample_rate);
  static Biquad bandpass(double freq_hz, double q, double sample_rate);
  static Biquad peaking(double freq_hz, double q, double gain_db,
                        double sample_rate);
  static Biquad high_shelf(double freq_hz, double q, double gain_db,
                           double sample_rate);

  MUTE_RT_SAFE Sample process(Sample x);
  void process(std::span<const Sample> in, std::span<Sample> out);
  void reset();

  /// Complex response at `freq_hz`.
  Complex response(double freq_hz, double sample_rate) const;

  std::array<double, 5> coefficients() const { return {b0_, b1_, b2_, a1_, a2_}; }

 private:
  double b0_, b1_, b2_, a1_, a2_;
  double z1_ = 0.0, z2_ = 0.0;
};

/// A cascade of biquad sections applied in series.
class BiquadCascade {
 public:
  BiquadCascade() = default;
  explicit BiquadCascade(std::vector<Biquad> sections);

  MUTE_RT_UNSAFE void push_section(Biquad section);

  MUTE_RT_SAFE Sample process(Sample x);
  void process(std::span<const Sample> in, std::span<Sample> out);
  MUTE_RT_UNSAFE Signal filter(std::span<const Sample> in);
  void reset();

  Complex response(double freq_hz, double sample_rate) const;
  std::size_t section_count() const { return sections_.size(); }

 private:
  std::vector<Biquad> sections_;
};

}  // namespace mute::dsp
