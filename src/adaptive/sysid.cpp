#include "adaptive/sysid.hpp"

#include <algorithm>
#include <cmath>

#include "audio/generators.hpp"
#include "common/error.hpp"
#include "common/math_utils.hpp"

namespace mute::adaptive {

PathIdentifier::PathIdentifier(std::size_t taps, std::size_t samples)
    : fir_(taps), samples_(samples), tail_(samples / 4) {
  ensure(samples >= taps * 4, "record too short to identify this many taps");
}

void PathIdentifier::push(Sample stimulus, Sample response) {
  const Sample e = fir_.step(stimulus, response);
  if (pushed_++ < samples_ - tail_) return;
  error_energy_ += static_cast<double>(e) * static_cast<double>(e);
  response_energy_ +=
      static_cast<double>(response) * static_cast<double>(response);
}

SysIdResult PathIdentifier::result() const {
  ensure(done(), "identification record is incomplete");
  // The construction check leaves tail_ >= 1.
  const auto n = static_cast<double>(tail_);
  const double e_rms = std::sqrt(error_energy_ / n);
  const double d_rms = std::sqrt(response_energy_ / n);
  SysIdResult out;
  out.impulse_response = fir_.weights();
  out.final_error_db = amplitude_to_db(e_rms / std::max(d_rms, 1e-12));
  return out;
}

SysIdResult identify_system(std::span<const Sample> stimulus,
                            std::span<const Sample> response,
                            std::size_t taps) {
  ensure(stimulus.size() == response.size(), "signal lengths must match");
  PathIdentifier id(taps, stimulus.size());
  for (std::size_t i = 0; i < stimulus.size(); ++i) {
    id.push(stimulus[i], response[i]);
  }
  return id.result();
}

SysIdResult calibrate_path(FunctionRef<Sample(Sample)> plant,
                           double sample_rate, double seconds,
                           std::size_t taps, std::uint64_t seed,
                           double stimulus_rms) {
  ensure(seconds > 0 && sample_rate > 0, "positive duration and rate");
  const auto n = static_cast<std::size_t>(seconds * sample_rate);
  mute::audio::WhiteNoiseSource noise(stimulus_rms, seed);
  PathIdentifier id(taps, n);
  Sample s = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    noise.render(std::span<Sample>(&s, 1));
    id.push(s, plant(s));
  }
  return id.result();
}

}  // namespace mute::adaptive
