#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "dsp/window.hpp"

namespace mute::dsp {

/// One-sided power spectral density estimate.
struct Psd {
  std::vector<double> freq_hz;   // bin centers, 0 .. fs/2
  std::vector<double> power;     // linear power per bin (V^2/Hz scale-free)
  double sample_rate = 0.0;

  /// Total power within [low_hz, high_hz): half-open, except the Nyquist
  /// bin is included when high_hz >= fs/2 (so a band ending exactly at
  /// Nyquist counts it — the SignatureExtractor last-band convention).
  double band_power(double low_hz, double high_hz) const;

  /// Power of the bin nearest to `freq` (for tonal checks).
  double power_at(double freq) const;
};

/// Welch-averaged periodogram. `segment` must be a power of two;
/// 50% overlap, Hann window by default.
Psd welch_psd(std::span<const Sample> x, double sample_rate,
              std::size_t segment = 1024,
              WindowType window = WindowType::kHann);

/// Short-time Fourier transform frames (for profiling / spectrograms).
/// Returns per-frame one-sided magnitude spectra.
std::vector<std::vector<double>> stft_magnitude(
    std::span<const Sample> x, std::size_t frame, std::size_t hop,
    WindowType window = WindowType::kHann);

}  // namespace mute::dsp
