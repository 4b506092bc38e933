#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "adaptive/lms.hpp"
#include "common/types.hpp"

namespace mute::adaptive {

/// Result of an offline system identification run.
struct SysIdResult {
  std::vector<double> impulse_response;  // estimated taps
  double final_error_db = 0.0;           // residual prediction error vs signal
  std::size_t samples_used = 0;
};

/// Identify an unknown system from a stimulus/response record with NLMS.
/// This is how the ear device calibrates the secondary path h_se: play a
/// known training noise from the anti-noise speaker and fit the error-mic
/// response (the paper: "h_se can be estimated by sending a known preamble
/// from the anti-noise speaker").
SysIdResult identify_system(std::span<const Sample> stimulus,
                            std::span<const Sample> response,
                            std::size_t taps);

/// Convenience calibration driver: generates `seconds` of white training
/// noise (deterministic from `seed`), pushes it through `plant` and
/// identifies the result. `plant` maps a whole stimulus signal to the
/// observed response (e.g. the physical h_se channel + transducers).
SysIdResult calibrate_path(
    const std::function<Signal(std::span<const Sample>)>& plant,
    double sample_rate, double seconds, std::size_t taps, std::uint64_t seed,
    double stimulus_rms = 0.1);

}  // namespace mute::adaptive
