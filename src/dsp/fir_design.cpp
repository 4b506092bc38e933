#include "dsp/fir_design.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "dsp/fft.hpp"

namespace mute::dsp {

namespace {

void apply_window(std::vector<double>& h, WindowType window) {
  const auto w = make_window(window, h.size());
  for (std::size_t i = 0; i < h.size(); ++i) h[i] *= w[i];
}

void validate(double cutoff_hz, double sample_rate, std::size_t taps) {
  ensure(sample_rate > 0, "sample_rate must be positive");
  ensure(cutoff_hz > 0 && cutoff_hz < sample_rate / 2,
         "cutoff must lie in (0, fs/2)");
  ensure(taps >= 3 && taps % 2 == 1, "taps must be odd and >= 3");
}

}  // namespace

std::vector<double> design_lowpass(double cutoff_hz, double sample_rate,
                                   std::size_t taps, WindowType window) {
  validate(cutoff_hz, sample_rate, taps);
  const double fc = cutoff_hz / sample_rate;  // normalized (cycles/sample)
  const auto mid = static_cast<double>(taps - 1) / 2.0;
  std::vector<double> h(taps);
  for (std::size_t i = 0; i < taps; ++i) {
    const double t = static_cast<double>(i) - mid;
    h[i] = 2.0 * fc * sinc(2.0 * fc * t);
  }
  apply_window(h, window);
  // Normalize DC gain to exactly 1.
  double dc = 0.0;
  for (double v : h) dc += v;
  for (double& v : h) v /= dc;
  return h;
}

std::vector<double> design_from_magnitude(std::span<const double> freq_hz,
                                          std::span<const double> magnitude,
                                          double sample_rate,
                                          std::size_t taps) {
  ensure(freq_hz.size() == magnitude.size() && freq_hz.size() >= 2,
         "need >= 2 matching frequency/magnitude points");
  ensure(taps >= 3 && taps % 2 == 1, "taps must be odd and >= 3");
  for (std::size_t i = 1; i < freq_hz.size(); ++i) {
    ensure(freq_hz[i] > freq_hz[i - 1], "frequencies must be increasing");
  }

  // Sample the desired magnitude on a dense uniform grid [0, fs/2].
  const std::size_t nfft = next_pow2(std::max<std::size_t>(8 * taps, 256));
  const std::size_t half = nfft / 2;
  std::vector<double> grid(half + 1);
  for (std::size_t k = 0; k <= half; ++k) {
    const double f = bin_frequency(k, nfft, sample_rate);
    // Piecewise-linear interpolation, clamped at the ends.
    if (f <= freq_hz.front()) {
      grid[k] = magnitude.front();
    } else if (f >= freq_hz.back()) {
      grid[k] = magnitude.back();
    } else {
      auto it = std::upper_bound(freq_hz.begin(), freq_hz.end(), f);
      const std::size_t j = static_cast<std::size_t>(it - freq_hz.begin());
      const double t = (f - freq_hz[j - 1]) / (freq_hz[j] - freq_hz[j - 1]);
      grid[k] = magnitude[j - 1] + t * (magnitude[j] - magnitude[j - 1]);
    }
  }

  // Build a linear-phase spectrum (group delay = (taps-1)/2) and invert.
  const double mid = static_cast<double>(taps - 1) / 2.0;
  ComplexSignal spectrum(nfft);
  for (std::size_t k = 0; k <= half; ++k) {
    const double phase = -kTwoPi * static_cast<double>(k) * mid /
                         static_cast<double>(nfft);
    spectrum[k] = std::polar(grid[k], phase);
    if (k != 0 && k != half) spectrum[nfft - k] = std::conj(spectrum[k]);
  }
  ComplexSignal time(spectrum);
  ifft_inplace(time);

  std::vector<double> h(taps);
  for (std::size_t i = 0; i < taps; ++i) h[i] = time[i].real();
  // Window to suppress truncation ripple.
  apply_window(h, WindowType::kHamming);
  return h;
}

std::vector<double> design_fractional_delay(double delay_samples,
                                            std::size_t taps,
                                            WindowType window) {
  ensure(taps >= 3, "need >= 3 taps");
  ensure(delay_samples >= 0.0 &&
             delay_samples <= static_cast<double>(taps - 1),
         "delay must lie within [0, taps-1]");
  std::vector<double> h(taps);
  for (std::size_t i = 0; i < taps; ++i) {
    h[i] = sinc(static_cast<double>(i) - delay_samples);
  }
  // Window centered on the delay, not the filter midpoint, so short delays
  // keep their main lobe intact.
  const auto w = make_window(window, taps);
  const double mid = static_cast<double>(taps - 1) / 2.0;
  const double shift = delay_samples - mid;
  for (std::size_t i = 0; i < taps; ++i) {
    const double pos = static_cast<double>(i) - shift;
    double wv = 0.0;
    if (pos >= 0.0 && pos <= static_cast<double>(taps - 1)) {
      // Linear interpolation of the window at the shifted position.
      const auto i0 = static_cast<std::size_t>(pos);
      const std::size_t i1 = std::min(i0 + 1, taps - 1);
      const double frac = pos - static_cast<double>(i0);
      wv = w[i0] + frac * (w[i1] - w[i0]);
    }
    h[i] *= wv;
  }
  // Normalize DC gain to 1 (pure delay should not change level).
  double dc = 0.0;
  for (double v : h) dc += v;
  ensure(std::abs(dc) > 1e-9, "degenerate fractional-delay design");
  for (double& v : h) v /= dc;
  return h;
}

Complex fir_response(std::span<const double> h, double freq_hz,
                     double sample_rate) {
  ensure(sample_rate > 0, "sample_rate must be positive");
  const double omega = kTwoPi * freq_hz / sample_rate;
  Complex acc(0.0, 0.0);
  for (std::size_t i = 0; i < h.size(); ++i) {
    acc += h[i] * std::polar(1.0, -omega * static_cast<double>(i));
  }
  return acc;
}

}  // namespace mute::dsp
