#include "dsp/biquad.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/math_utils.hpp"

namespace mute::dsp {

namespace {

struct RbjParams {
  double w0, cw, sw, alpha;
};

RbjParams rbj(double freq_hz, double q, double sample_rate) {
  ensure(sample_rate > 0, "sample_rate must be positive");
  ensure(freq_hz > 0 && freq_hz < sample_rate / 2, "freq must be in (0, fs/2)");
  ensure(q > 0, "Q must be positive");
  const double w0 = kTwoPi * freq_hz / sample_rate;
  return {w0, std::cos(w0), std::sin(w0), std::sin(w0) / (2.0 * q)};
}

}  // namespace

Biquad::Biquad(double b0, double b1, double b2, double a1, double a2)
    : b0_(b0), b1_(b1), b2_(b2), a1_(a1), a2_(a2) {}

Biquad Biquad::lowpass(double freq_hz, double q, double sample_rate) {
  const auto p = rbj(freq_hz, q, sample_rate);
  const double a0 = 1.0 + p.alpha;
  return {(1.0 - p.cw) / 2.0 / a0, (1.0 - p.cw) / a0, (1.0 - p.cw) / 2.0 / a0,
          -2.0 * p.cw / a0, (1.0 - p.alpha) / a0};
}

Biquad Biquad::highpass(double freq_hz, double q, double sample_rate) {
  const auto p = rbj(freq_hz, q, sample_rate);
  const double a0 = 1.0 + p.alpha;
  return {(1.0 + p.cw) / 2.0 / a0, -(1.0 + p.cw) / a0, (1.0 + p.cw) / 2.0 / a0,
          -2.0 * p.cw / a0, (1.0 - p.alpha) / a0};
}

Biquad Biquad::bandpass(double freq_hz, double q, double sample_rate) {
  const auto p = rbj(freq_hz, q, sample_rate);
  const double a0 = 1.0 + p.alpha;
  return {p.alpha / a0, 0.0, -p.alpha / a0, -2.0 * p.cw / a0,
          (1.0 - p.alpha) / a0};
}

Biquad Biquad::peaking(double freq_hz, double q, double gain_db,
                       double sample_rate) {
  const auto p = rbj(freq_hz, q, sample_rate);
  const double big_a = std::pow(10.0, gain_db / 40.0);
  const double a0 = 1.0 + p.alpha / big_a;
  return {(1.0 + p.alpha * big_a) / a0, -2.0 * p.cw / a0,
          (1.0 - p.alpha * big_a) / a0, -2.0 * p.cw / a0,
          (1.0 - p.alpha / big_a) / a0};
}

Biquad Biquad::high_shelf(double freq_hz, double q, double gain_db,
                          double sample_rate) {
  const auto p = rbj(freq_hz, q, sample_rate);
  const double big_a = std::pow(10.0, gain_db / 40.0);
  const double sq = 2.0 * std::sqrt(big_a) * p.alpha;
  const double ap1 = big_a + 1.0, am1 = big_a - 1.0;
  const double a0 = ap1 - am1 * p.cw + sq;
  return {big_a * (ap1 + am1 * p.cw + sq) / a0,
          -2.0 * big_a * (am1 + ap1 * p.cw) / a0,
          big_a * (ap1 + am1 * p.cw - sq) / a0,
          2.0 * (am1 - ap1 * p.cw) / a0,
          (ap1 - am1 * p.cw - sq) / a0};
}

Sample Biquad::process(Sample x) {
  MUTE_CHECK_FINITE(x, "biquad input sample");
  MUTE_RT_SCOPE("Biquad::process");
  const double xd = static_cast<double>(x);
  const double y = b0_ * xd + z1_;
  z1_ = b1_ * xd - a1_ * y + z2_;
  z2_ = b2_ * xd - a2_ * y;
  return static_cast<Sample>(y);
}

void Biquad::process(std::span<const Sample> in, std::span<Sample> out) {
  ensure(in.size() == out.size(), "in/out block sizes must match");
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = process(in[i]);
}

void Biquad::reset() { z1_ = z2_ = 0.0; }

Complex Biquad::response(double freq_hz, double sample_rate) const {
  const double w = kTwoPi * freq_hz / sample_rate;
  const Complex z1 = std::polar(1.0, -w);
  const Complex z2 = z1 * z1;
  return (b0_ + b1_ * z1 + b2_ * z2) / (1.0 + a1_ * z1 + a2_ * z2);
}

BiquadCascade::BiquadCascade(std::vector<Biquad> sections)
    : sections_(std::move(sections)) {}

void BiquadCascade::push_section(Biquad section) {
  sections_.push_back(section);
}

Sample BiquadCascade::process(Sample x) {
  for (auto& s : sections_) x = s.process(x);
  return x;
}

void BiquadCascade::process(std::span<const Sample> in, std::span<Sample> out) {
  ensure(in.size() == out.size(), "in/out block sizes must match");
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = process(in[i]);
}

Signal BiquadCascade::filter(std::span<const Sample> in) {
  Signal out(in.size());
  process(in, out);
  return out;
}

void BiquadCascade::reset() {
  for (auto& s : sections_) s.reset();
}

Complex BiquadCascade::response(double freq_hz, double sample_rate) const {
  Complex r(1.0, 0.0);
  for (const auto& s : sections_) r *= s.response(freq_hz, sample_rate);
  return r;
}

}  // namespace mute::dsp
