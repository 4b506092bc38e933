#pragma once

#include <cstdint>
#include <span>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace mute::rf {

/// Complex-baseband wireless channel between the relay and the ear device.
/// Because the FM signal occupies only ~8 kHz inside the 26 MHz ISM band,
/// the channel is frequency-flat (single tap, as the paper argues), so we
/// model: a static random phase, AWGN at a configured SNR relative to the
/// unit-power signal (path loss folds into the SNR), carrier frequency
/// offset, oscillator phase noise, and slow flat fading (log-normal
/// amplitude wobble). RF propagation delay at room scale is
/// ~3-30 ns << one baseband sample and is therefore zero samples.
struct RfChannelParams {
  double snr_db = 40.0;            // AWGN level relative to unit signal
  double cfo_hz = 200.0;           // TX/RX LO offset
  double phase_noise_rad = 1e-4;   // per-sample random walk std-dev
  double fading_rate_hz = 0.5;     // bandwidth of the amplitude wobble
  double fading_depth = 0.0;       // 0 = no fading; 0.3 = +-~30% swings
};

class RfChannel {
 public:
  RfChannel(RfChannelParams params, double sample_rate, std::uint64_t seed);

  Complex process(Complex x);
  ComplexSignal process(std::span<const Complex> x);
  void reset();

 private:
  RfChannelParams params_;
  double fs_;
  std::uint64_t seed_;
  Rng rng_;
  double noise_std_ = 0.0;
  double cfo_phase_ = 0.0;
  double pn_phase_ = 0.0;
  double static_phase_ = 0.0;
  double fade_state_ = 0.0;
  double fade_alpha_ = 0.0;
};

}  // namespace mute::rf
