#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace mute::eval {

/// Per-frequency cancellation: 10*log10(PSD_residual / PSD_disturbance).
/// Negative values mean the ANC removed energy (the paper's Figure 12/14
/// y-axis); 0 means no effect.
struct CancellationSpectrum {
  std::vector<double> freq_hz;
  std::vector<double> cancellation_db;

  /// Mean cancellation (dB averaged across bins) within [lo, hi) Hz.
  double average_db(double lo_hz, double hi_hz) const;

  /// Cancellation of the bin nearest `freq_hz`.
  double at(double freq_hz) const;

  /// Fractional-octave smoothed copy (standard acoustic-measurement
  /// practice; the paper's plotted curves are similarly smooth). Each
  /// bin is averaged over [f/2^(1/2k), f*2^(1/2k)] for 1/k-octave width.
  CancellationSpectrum smoothed(double octave_fraction = 6.0) const;
};

/// Compute the cancellation spectrum from aligned disturbance/residual
/// records, skipping the first `skip_s` seconds (convergence transient).
CancellationSpectrum cancellation_spectrum(std::span<const Sample> disturbance,
                                           std::span<const Sample> residual,
                                           double sample_rate,
                                           double skip_s = 2.0,
                                           std::size_t segment = 1024);

/// Wide-band cancellation in dB over [lo, hi): total band power ratio.
double band_cancellation_db(std::span<const Sample> disturbance,
                            std::span<const Sample> residual,
                            double sample_rate, double lo_hz, double hi_hz,
                            double skip_s = 2.0);

/// Time for the residual to converge: first instant after which the moving
/// RMS (window `window_s`) stays within `margin_db` of the final tail RMS.
/// Returns the full duration if it never converges.
double convergence_time_s(std::span<const Sample> residual,
                          double sample_rate, double window_s = 0.25,
                          double margin_db = 3.0);

}  // namespace mute::eval
