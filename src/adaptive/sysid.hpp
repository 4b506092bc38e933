#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "adaptive/lms.hpp"
#include "common/function_ref.hpp"
#include "common/rt_annotations.hpp"
#include "common/types.hpp"

namespace mute::adaptive {

/// Result of a system identification run.
struct SysIdResult {
  std::vector<double> impulse_response;  // estimated taps
  double final_error_db = 0.0;           // residual prediction error vs signal
};

/// Streaming system identifier: one NLMS step per (stimulus, response) pair
/// as the pairs arrive, so no record is kept. This is how the ear device
/// calibrates the secondary path h_se: play a known training noise from the
/// anti-noise speaker and fit the error-mic response (the paper: "h_se can
/// be estimated by sending a known preamble from the anti-noise speaker").
/// The error and response energies of the last quarter of the `samples`
/// pushes (the converged region) give `final_error_db`.
class PathIdentifier {
 public:
  /// `samples` pairs will be pushed; at least 4 * taps.
  PathIdentifier(std::size_t taps, std::size_t samples);

  /// Fit one pair: `response` is what the plant made of `stimulus`.
  MUTE_RT_SAFE void push(Sample stimulus, Sample response);

  /// Pairs pushed so far, and whether all `samples` are in.
  std::size_t pushed() const { return pushed_; }
  bool done() const { return pushed_ >= samples_; }

  /// The fitted taps and the tail's prediction error; requires done().
  SysIdResult result() const;

 private:
  AdaptiveFir fir_;
  std::size_t samples_;
  std::size_t tail_;  // samples / 4
  std::size_t pushed_ = 0;
  double error_energy_ = 0.0;
  double response_energy_ = 0.0;
};

/// PathIdentifier over a whole recorded stimulus/response pair.
SysIdResult identify_system(std::span<const Sample> stimulus,
                            std::span<const Sample> response,
                            std::size_t taps);

/// Convenience calibration driver: plays `seconds` of white training noise
/// (deterministic from `seed`) one sample at a time through `plant` and
/// identifies the result. `plant` maps one stimulus sample to the observed
/// response sample (e.g. the physical h_se channel + transducers).
SysIdResult calibrate_path(FunctionRef<Sample(Sample)> plant,
                           double sample_rate, double seconds,
                           std::size_t taps, std::uint64_t seed,
                           double stimulus_rms = 0.1);

}  // namespace mute::adaptive
