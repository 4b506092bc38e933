#include "adaptive/sysid.hpp"

#include <cmath>

#include "audio/generators.hpp"
#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "dsp/signal_ops.hpp"

namespace mute::adaptive {

SysIdResult identify_system(std::span<const Sample> stimulus,
                            std::span<const Sample> response,
                            std::size_t taps) {
  ensure(stimulus.size() == response.size(), "signal lengths must match");
  ensure(stimulus.size() >= taps * 4,
         "record too short to identify this many taps");
  AdaptiveFir fir(taps);
  Signal err = fir.identify(stimulus, response);

  // Report error power over the last quarter (converged region).
  const std::size_t tail = err.size() / 4;
  const std::span<const Sample> err_tail(err.data() + err.size() - tail, tail);
  const std::span<const Sample> resp_tail(
      response.data() + response.size() - tail, tail);
  const double e_rms = mute::dsp::rms(err_tail);
  const double d_rms = mute::dsp::rms(resp_tail);

  SysIdResult out;
  out.impulse_response = fir.weights();
  out.final_error_db = amplitude_to_db(e_rms / std::max(d_rms, 1e-12));
  out.samples_used = stimulus.size();
  return out;
}

SysIdResult calibrate_path(
    const std::function<Signal(std::span<const Sample>)>& plant,
    double sample_rate, double seconds, std::size_t taps, std::uint64_t seed,
    double stimulus_rms) {
  ensure(plant != nullptr, "plant function required");
  ensure(seconds > 0 && sample_rate > 0, "positive duration and rate");
  const auto n = static_cast<std::size_t>(seconds * sample_rate);
  mute::audio::WhiteNoiseSource noise(stimulus_rms, seed);
  Signal stimulus = noise.generate(n);
  Signal response = plant(stimulus);
  ensure(response.size() == stimulus.size(),
         "plant must return one response sample per stimulus sample");
  return identify_system(stimulus, response, taps);
}

}  // namespace mute::adaptive
