#pragma once

#include <cstddef>
#include <vector>

#include "acoustics/propagation.hpp"
#include "common/types.hpp"

namespace mute::acoustics {

/// A rectangular ("shoebox") room for image-source impulse-response
/// synthesis. Walls have a per-pair reflection coefficient; reflections up
/// to `max_order` images are summed. This replaces the paper's physical
/// office: it produces the long, non-minimum-phase multipath channels
/// (h_nr, h_ne, h_se) whose non-causal inverses motivate lookahead.
struct Room {
  double lx = 6.0, ly = 5.0, lz = 3.0;   // dimensions, meters
  // Furnished-office reflectivity (carpet, desks, ceiling tiles): RT60 in
  // the low hundreds of ms, matching the paper's natural indoor setting.
  double reflection_x = 0.55;            // walls perpendicular to x
  double reflection_y = 0.55;            // walls perpendicular to y
  double reflection_z = 0.5;             // floor/ceiling
  int max_order = 3;                     // image-source reflection order
  double speed_of_sound = kSpeedOfSound;

  /// A typical small office (the paper's Figure 2 setting).
  static Room office();

  /// An almost anechoic room (direct path dominates).
  static Room anechoic();

  /// True if p lies strictly inside the room.
  bool contains(Point p) const;
};

/// Options for RIR synthesis.
struct RirOptions {
  double sample_rate = kDefaultSampleRate;
  std::size_t length = 2048;        // taps
};

/// Windowed-sinc spread of each image-source arrival, in taps.
inline constexpr std::size_t kRirInterpTaps = 23;

/// Synthesize the room impulse response from `source` to `receiver` with
/// the image-source method. Each image arrives with 1/r spreading loss;
/// fractional delays are band-limited (windowed sinc) so sub-sample
/// geometry differences are preserved.
std::vector<double> image_source_rir(const Room& room, Point source,
                                     Point receiver, const RirOptions& opts);

/// Time of the direct-path arrival in samples (fractional).
double direct_delay_samples(const Room& room, Point source, Point receiver,
                            double sample_rate);

/// Estimate RT60 from an impulse response via Schroeder backward
/// integration (returns seconds; 0 if the energy never decays 60 dB within
/// the response, in which case the decay is extrapolated from T20).
double estimate_rt60(const std::vector<double>& rir, double sample_rate);

}  // namespace mute::acoustics
