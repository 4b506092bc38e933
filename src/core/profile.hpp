#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace mute::core {

/// A sound profile: the paper's "statistical signature for the sound
/// source — a simple example is the average energy distribution across
/// frequencies". We use log-band energies normalized to unit sum plus the
/// absolute level, so the classifier distinguishes both spectral shape
/// (speech vs wideband) and presence (speech vs pause).
struct ProfileSignature {
  std::vector<double> band_fraction;  // normalized per-band energy
  double level_db = -120.0;           // overall frame level

  /// Distance between two signatures (symmetric, >= 0): L1 on band
  /// fractions plus a scaled level term.
  double distance(const ProfileSignature& other) const;
};

/// Computes signatures from raw frames of the lookahead buffer.
class SignatureExtractor {
 public:
  /// `bands` log-spaced bands between 100 Hz and fs/2 (default 8).
  SignatureExtractor(double sample_rate, std::size_t fft_size = 256,
                     std::size_t bands = 8);

  /// Non-const: reuses the preallocated window/FFT workspace (extraction
  /// runs once per profiler frame; rebuilding them per call was measurable
  /// on the hot path).
  ProfileSignature extract(std::span<const Sample> frame);

  std::size_t fft_size() const { return fft_size_; }

 private:
  double fs_;
  std::size_t fft_size_;
  std::vector<double> window_;  // Hann, built once
  ComplexSignal buf_;           // FFT workspace, reused every frame
  std::vector<std::pair<double, double>> bands_;
};

/// Online profile classifier: nearest-signature matching with a creation
/// threshold — an unsupervised, tiny k-means-like clustering that assigns
/// every frame to a profile id (0-based). Bounded at kMaxProfiles; when
/// full, the closest existing profile absorbs the frame.
class ProfileClassifier {
 public:
  /// Profile slots, the silence profile 0 included.
  static constexpr std::size_t kMaxProfiles = 6;
  /// Distance above which a new profile forms.
  static constexpr double kMatchThreshold = 0.6;
  /// EMA update of a centroid toward a new member.
  static constexpr double kCentroidAlpha = 0.05;
  /// Centroids absorb (EMA-drift toward) a frame only when the match is
  /// confident — within this fraction of the threshold. Without the
  /// margin, borderline frames during source transitions drag a centroid
  /// across the feature space until one cluster swallows everything.
  static constexpr double kAbsorbFraction = 0.5;
  /// Below this level a frame goes to the dedicated profile 0.
  static constexpr double kSilenceDb = -55.0;

  /// Classify a signature; profile 0 is reserved for silence/background
  /// below the silence threshold.
  std::size_t classify(const ProfileSignature& signature);

  std::size_t profile_count() const { return centroids_.size(); }
  void reset();

 private:
  std::vector<ProfileSignature> centroids_;  // index 0 = silence
};

}  // namespace mute::core
