#include "rf/rf_channel.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math_utils.hpp"

namespace mute::rf {

RfChannel::RfChannel(RfChannelParams params, double sample_rate,
                     std::uint64_t seed)
    : params_(params), fs_(sample_rate), rng_(seed) {
  ensure(sample_rate > 0, "sample rate must be positive");
  ensure(params.fading_depth >= 0 && params.fading_depth < 1,
         "fading depth in [0,1)");
  // Complex AWGN with total power = signal_power / SNR for a unit-power
  // FM signal (|x| = 1): per-quadrature std-dev is sqrt(p/2).
  const double noise_power = db_to_power(-params.snr_db);
  noise_std_ = std::sqrt(noise_power / 2.0);
  static_phase_ = rng_.uniform(0.0, kTwoPi);
  fade_alpha_ = std::exp(-kTwoPi * params.fading_rate_hz / sample_rate);
}

Complex RfChannel::process(Complex x) {
  // CFO rotation.
  cfo_phase_ = wrap_phase(cfo_phase_ + kTwoPi * params_.cfo_hz / fs_);
  // Oscillator phase noise: random walk.
  pn_phase_ = wrap_phase(pn_phase_ + rng_.gaussian(params_.phase_noise_rad));
  // Slow log-normal fading.
  fade_state_ = fade_alpha_ * fade_state_ +
                (1.0 - fade_alpha_) * rng_.gaussian(6.0);
  const double fade =
      std::exp(params_.fading_depth * std::tanh(fade_state_));

  const Complex rotated =
      x * std::polar(fade, static_phase_ + cfo_phase_ + pn_phase_);
  const Complex noise(rng_.gaussian(noise_std_), rng_.gaussian(noise_std_));
  return rotated + noise;
}

ComplexSignal RfChannel::process(std::span<const Complex> x) {
  ComplexSignal out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = process(x[i]);
  return out;
}

}  // namespace mute::rf
