#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numbers>

#include "common/error.hpp"

namespace mute {

inline constexpr double kPi = std::numbers::pi;
inline constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Smallest power of two >= n (n must be >= 1).
inline std::size_t next_pow2(std::size_t n) {
  ensure(n >= 1, "next_pow2 requires n >= 1");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

inline bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Convert a linear amplitude ratio to decibels (20*log10).
inline double amplitude_to_db(double ratio) {
  return 20.0 * std::log10(std::max(ratio, 1e-12));
}

/// Convert a linear power ratio to decibels (10*log10).
inline double power_to_db(double ratio) {
  return 10.0 * std::log10(std::max(ratio, 1e-24));
}

/// Convert decibels to a linear amplitude ratio.
inline double db_to_amplitude(double db) { return std::pow(10.0, db / 20.0); }

/// Convert decibels to a linear power ratio.
inline double db_to_power(double db) { return std::pow(10.0, db / 10.0); }

/// Normalized sinc: sin(pi x)/(pi x), sinc(0) = 1.
inline double sinc(double x) {
  if (std::abs(x) < 1e-9) return 1.0;
  const double px = kPi * x;
  return std::sin(px) / px;
}

/// Wrap a phase angle into (-pi, pi].
inline double wrap_phase(double phi) {
  phi = std::fmod(phi + kPi, kTwoPi);
  if (phi < 0) phi += kTwoPi;
  return phi - kPi;
}

}  // namespace mute
