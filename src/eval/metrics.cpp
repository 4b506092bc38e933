#include "eval/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "dsp/spectral.hpp"

namespace mute::eval {

double CancellationSpectrum::average_db(double lo_hz, double hi_hz) const {
  ensure(lo_hz < hi_hz, "band must satisfy lo < hi");
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < freq_hz.size(); ++i) {
    if (freq_hz[i] >= lo_hz && freq_hz[i] < hi_hz) {
      sum += cancellation_db[i];
      ++count;
    }
  }
  ensure(count > 0, "no bins inside the requested band");
  return sum / static_cast<double>(count);
}

double CancellationSpectrum::at(double freq) const {
  ensure(!freq_hz.empty(), "empty spectrum");
  std::size_t best = 0;
  double best_d = std::abs(freq_hz[0] - freq);
  for (std::size_t i = 1; i < freq_hz.size(); ++i) {
    const double d = std::abs(freq_hz[i] - freq);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return cancellation_db[best];
}

CancellationSpectrum CancellationSpectrum::smoothed(
    double octave_fraction) const {
  ensure(octave_fraction >= 1.0, "octave fraction must be >= 1");
  CancellationSpectrum out;
  out.freq_hz = freq_hz;
  out.cancellation_db.resize(cancellation_db.size());
  const double half_width = std::pow(2.0, 0.5 / octave_fraction);
  for (std::size_t i = 0; i < freq_hz.size(); ++i) {
    const double f = std::max(freq_hz[i], 1.0);
    const double lo = f / half_width;
    const double hi = f * half_width;
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t j = 0; j < freq_hz.size(); ++j) {
      if (freq_hz[j] >= lo && freq_hz[j] <= hi) {
        sum += cancellation_db[j];
        ++count;
      }
    }
    out.cancellation_db[i] =
        count > 0 ? sum / static_cast<double>(count) : cancellation_db[i];
  }
  return out;
}

namespace {

std::span<const Sample> skip_head(std::span<const Sample> x,
                                  double sample_rate, double skip_s) {
  const auto skip = static_cast<std::size_t>(skip_s * sample_rate);
  ensure(skip < x.size(), "skip exceeds record length");
  return x.subspan(skip);
}

}  // namespace

CancellationSpectrum cancellation_spectrum(std::span<const Sample> disturbance,
                                           std::span<const Sample> residual,
                                           double sample_rate, double skip_s,
                                           std::size_t segment) {
  ensure(disturbance.size() == residual.size(), "records must be aligned");
  const auto d = skip_head(disturbance, sample_rate, skip_s);
  const auto r = skip_head(residual, sample_rate, skip_s);
  const auto psd_d = mute::dsp::welch_psd(d, sample_rate, segment);
  const auto psd_r = mute::dsp::welch_psd(r, sample_rate, segment);

  CancellationSpectrum out;
  out.freq_hz = psd_d.freq_hz;
  out.cancellation_db.resize(psd_d.power.size());
  for (std::size_t k = 0; k < psd_d.power.size(); ++k) {
    out.cancellation_db[k] =
        power_to_db(std::max(psd_r.power[k], 1e-24) /
                    std::max(psd_d.power[k], 1e-24));
  }
  return out;
}

double band_cancellation_db(std::span<const Sample> disturbance,
                            std::span<const Sample> residual,
                            double sample_rate, double lo_hz, double hi_hz,
                            double skip_s) {
  ensure(disturbance.size() == residual.size(), "records must be aligned");
  const auto d = skip_head(disturbance, sample_rate, skip_s);
  const auto r = skip_head(residual, sample_rate, skip_s);
  const auto psd_d = mute::dsp::welch_psd(d, sample_rate);
  const auto psd_r = mute::dsp::welch_psd(r, sample_rate);
  return power_to_db(std::max(psd_r.band_power(lo_hz, hi_hz), 1e-24) /
                     std::max(psd_d.band_power(lo_hz, hi_hz), 1e-24));
}

double convergence_time_s(std::span<const Sample> residual,
                          double sample_rate, double window_s,
                          double margin_db) {
  ensure(!residual.empty(), "empty residual");
  const auto window =
      std::max<std::size_t>(16, static_cast<std::size_t>(window_s * sample_rate));
  // Moving-RMS envelope, same length as the residual.
  std::vector<double> env(residual.size(), 0.0);
  double acc = 0.0;
  for (std::size_t i = 0; i < residual.size(); ++i) {
    const double v = static_cast<double>(residual[i]);
    acc += v * v;
    if (i >= window) {
      const double old = static_cast<double>(residual[i - window]);
      acc -= old * old;
    }
    const auto denom = static_cast<double>(std::min(i + 1, window));
    env[i] = std::sqrt(std::max(acc, 0.0) / denom);
  }
  // Final level: median-ish of the last 10%.
  const std::size_t tail_start = env.size() - env.size() / 10 - 1;
  double final_level = 0.0;
  for (std::size_t i = tail_start; i < env.size(); ++i) final_level += env[i];
  final_level /= static_cast<double>(env.size() - tail_start);
  const double threshold = final_level * db_to_amplitude(margin_db);

  // Last index where the envelope exceeded the threshold.
  std::size_t last_bad = 0;
  for (std::size_t i = window; i < env.size(); ++i) {
    if (env[i] > threshold) last_bad = i;
  }
  return static_cast<double>(last_bad) / sample_rate;
}

}  // namespace mute::eval
