#include "core/profile.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "dsp/fft.hpp"
#include "dsp/signal_ops.hpp"
#include "dsp/window.hpp"

namespace mute::core {

double ProfileSignature::distance(const ProfileSignature& other) const {
  ensure(band_fraction.size() == other.band_fraction.size(),
         "signatures must have equal band counts");
  double l1 = 0.0;
  for (std::size_t i = 0; i < band_fraction.size(); ++i) {
    l1 += std::abs(band_fraction[i] - other.band_fraction[i]);
  }
  const double level_term = std::abs(level_db - other.level_db) / 40.0;
  return l1 + level_term;
}

SignatureExtractor::SignatureExtractor(double sample_rate,
                                       std::size_t fft_size,
                                       std::size_t bands)
    : fs_(sample_rate),
      fft_size_(fft_size),
      window_(mute::dsp::make_window(mute::dsp::WindowType::kHann, fft_size)),
      buf_(fft_size) {
  ensure(sample_rate > 0, "sample rate must be positive");
  ensure(is_pow2(fft_size), "fft size must be a power of two");
  ensure(bands >= 2, "need >= 2 bands");
  // Log-spaced band edges from 100 Hz to Nyquist.
  const double lo = 100.0;
  const double hi = sample_rate / 2.0;
  bands_.reserve(bands);
  for (std::size_t b = 0; b < bands; ++b) {
    const double f0 = lo * std::pow(hi / lo, static_cast<double>(b) /
                                                  static_cast<double>(bands));
    const double f1 = lo * std::pow(hi / lo, static_cast<double>(b + 1) /
                                                  static_cast<double>(bands));
    bands_.emplace_back(f0, f1);
  }
}

ProfileSignature SignatureExtractor::extract(std::span<const Sample> frame) {
  ensure(frame.size() >= fft_size_, "frame shorter than FFT size");
  // Use the most recent fft_size_ samples of the frame. The Hann window
  // and the FFT workspace are built once in the constructor — this runs
  // every profiler frame, and rebuilding both per call burned an
  // allocation plus a transcendental fill on the hot path.
  const std::size_t off = frame.size() - fft_size_;
  for (std::size_t i = 0; i < fft_size_; ++i) {
    buf_[i] = Complex(window_[i] * static_cast<double>(frame[off + i]), 0.0);
  }
  mute::dsp::fft_inplace(buf_);

  ProfileSignature sig;
  sig.band_fraction.assign(bands_.size(), 0.0);
  double total = 0.0;
  for (std::size_t k = 0; k <= fft_size_ / 2; ++k) {
    const double f = mute::dsp::bin_frequency(k, fft_size_, fs_);
    const double p = std::norm(buf_[k]);
    for (std::size_t b = 0; b < bands_.size(); ++b) {
      // Bands are half-open [f0, f1) except the last, which closes at
      // Nyquist: with every edge half-open the fs/2 bin satisfied no
      // band's `f < f1`, so content near Nyquist silently vanished from
      // the fractions and they stopped summing to 1.
      const bool in_band =
          f >= bands_[b].first &&
          (f < bands_[b].second ||
           (b + 1 == bands_.size() && f <= bands_[b].second));
      if (in_band) {
        sig.band_fraction[b] += p;
        break;
      }
    }
    total += p;
  }
  if (total > 1e-20) {
    for (double& v : sig.band_fraction) v /= total;
  }
  sig.level_db = power_to_db(total / static_cast<double>(fft_size_));
  return sig;
}

std::size_t ProfileClassifier::classify(const ProfileSignature& signature) {
  // Silence gate first: profile 0.
  if (signature.level_db < kSilenceDb) {
    if (centroids_.empty()) centroids_.push_back(signature);
    return 0;
  }
  if (centroids_.empty()) {
    // Seed slot 0 (silence) lazily with a quiet placeholder, then slot 1.
    ProfileSignature quiet = signature;
    quiet.level_db = -120.0;
    centroids_.push_back(std::move(quiet));
  }

  std::size_t best = 0;
  double best_d = 1e300;
  for (std::size_t i = 1; i < centroids_.size(); ++i) {
    const double d = signature.distance(centroids_[i]);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  if (centroids_.size() == 1 ||
      (best_d > kMatchThreshold &&
       centroids_.size() < kMaxProfiles)) {
    centroids_.push_back(signature);
    return centroids_.size() - 1;
  }
  // Absorb into the nearest centroid (EMA), but only on confident matches
  // so transition frames cannot drag the centroid across clusters.
  if (best_d < kAbsorbFraction * kMatchThreshold) {
    auto& c = centroids_[best];
    for (std::size_t i = 0; i < c.band_fraction.size(); ++i) {
      c.band_fraction[i] += kCentroidAlpha *
                            (signature.band_fraction[i] - c.band_fraction[i]);
    }
    c.level_db += kCentroidAlpha * (signature.level_db - c.level_db);
  }
  return best;
}

}  // namespace mute::core
