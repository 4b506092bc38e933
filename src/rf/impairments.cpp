#include "rf/impairments.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/math_utils.hpp"

namespace mute::rf {

namespace {

// Drift delay ring length (power of two). At the 256 kHz baseband rate this
// is 16 ms of headroom — far beyond what any realistic ppm schedule
// accumulates (100 ppm for 60 s is ~1.5 k samples).
constexpr std::size_t kDriftRingSize = 4096;

// Amplitude coupling of a channel-pinned jammer into a receiver tuned to
// `rx_channel`. Co-channel couples at unity; one channel away the
// channel-select filter leaves ~ -30 dB (adjacent-channel rejection of the
// 4th-order select filter against a tone one full FM channel pitch out of
// band); two or more away the tone is far outside the passband and only a
// negligible floor remains. A -1 event follows the victim (legacy
// co-channel semantics), so it always couples at unity.
double jammer_channel_coupling(int jammer_channel, std::size_t rx_channel) {
  if (jammer_channel < 0) return 1.0;
  const auto jc = static_cast<std::ptrdiff_t>(jammer_channel);
  const auto rc = static_cast<std::ptrdiff_t>(rx_channel);
  const std::ptrdiff_t d = jc > rc ? jc - rc : rc - jc;
  if (d == 0) return 1.0;
  if (d == 1) return 0.0316;  // -30 dB adjacent-channel rejection
  return 1e-4;                // -80 dB: out of the selectivity curve
}

// Raised-cosine shape of a fade event: 0 outside, smooth 0->1 over the
// entry ramp, 1 at the bottom, smooth 1->0 over the exit ramp.
double fade_shape(const FaultEvent& event, double t) {
  const double ramp = std::min(event.fade_ramp_s, 0.5 * event.duration_s);
  double p = 1.0;
  if (ramp > 0.0) {
    if (t < event.start_s + ramp) {
      p = (t - event.start_s) / ramp;
    } else if (t > event.end_s() - ramp) {
      p = (event.end_s() - t) / ramp;
    }
  }
  p = std::clamp(p, 0.0, 1.0);
  return 0.5 * (1.0 - std::cos(kPi * p));
}

}  // namespace

FaultSchedule& FaultSchedule::add(FaultEvent event) {
  ensure(event.start_s >= 0.0, "fault event start must be >= 0");
  ensure(event.duration_s >= 0.0, "fault event duration must be >= 0");
  events_.push_back(event);
  return *this;
}

FaultSchedule& FaultSchedule::relay_off(double start_s, double duration_s) {
  FaultEvent e;
  e.kind = FaultKind::kRelayOff;
  e.start_s = start_s;
  e.duration_s = duration_s;
  return add(e);
}

FaultSchedule& FaultSchedule::jammer(double start_s, double duration_s,
                                     double offset_hz, double power_db,
                                     int channel) {
  FaultEvent e;
  e.kind = FaultKind::kJammer;
  e.start_s = start_s;
  e.duration_s = duration_s;
  e.jammer_offset_hz = offset_hz;
  e.jammer_power_db = power_db;
  e.jammer_channel = channel;
  return add(e);
}

FaultSchedule& FaultSchedule::deep_fade(double start_s, double duration_s,
                                        double depth_db, double ramp_s) {
  ensure(depth_db >= 0.0, "fade depth is a positive dB dip");
  FaultEvent e;
  e.kind = FaultKind::kDeepFade;
  e.start_s = start_s;
  e.duration_s = duration_s;
  e.fade_depth_db = depth_db;
  e.fade_ramp_s = ramp_s;
  return add(e);
}

FaultSchedule& FaultSchedule::impulse_noise(double start_s, double duration_s,
                                            double rate_hz, double amplitude) {
  ensure(rate_hz >= 0.0, "impulse rate must be >= 0");
  FaultEvent e;
  e.kind = FaultKind::kImpulseNoise;
  e.start_s = start_s;
  e.duration_s = duration_s;
  e.impulse_rate_hz = rate_hz;
  e.impulse_amplitude = amplitude;
  return add(e);
}

FaultSchedule& FaultSchedule::clock_drift(double start_s, double duration_s,
                                          double ppm) {
  FaultEvent e;
  e.kind = FaultKind::kClockDrift;
  e.start_s = start_s;
  e.duration_s = duration_s;
  e.drift_ppm = ppm;
  return add(e);
}

FaultSchedule& FaultSchedule::merge(const FaultSchedule& other) {
  for (const FaultEvent& e : other.events_) add(e);
  return *this;
}

bool FaultSchedule::has(FaultKind kind) const {
  return std::any_of(events_.begin(), events_.end(),
                     [kind](const FaultEvent& e) { return e.kind == kind; });
}

double FaultSchedule::end_s() const {
  double end = 0.0;
  for (const FaultEvent& e : events_) end = std::max(end, e.end_s());
  return end;
}

FaultInjector::FaultInjector(FaultSchedule schedule,
                             RfChannelParams channel_params,
                             double sample_rate, std::uint64_t seed)
    : schedule_(std::move(schedule)),
      channel_(channel_params, sample_rate, seed),
      fs_(sample_rate),
      rng_(seed ^ 0xFA17u),
      has_drift_(schedule_.has(FaultKind::kClockDrift)),
      drift_ring_(has_drift_ ? kDriftRingSize : 0, Complex{0.0, 0.0}) {
  ensure(sample_rate > 0.0, "sample rate must be positive");
  // Static jammer phases: deterministic per (seed, event index).
  Rng phase_rng(seed ^ 0x1A33E4ull);
  jammer_phase_.resize(schedule_.events().size());
  for (double& phase : jammer_phase_) phase = phase_rng.uniform(0.0, kTwoPi);
}

Complex FaultInjector::process(Complex x) {
  MUTE_RT_SCOPE("FaultInjector::process");
  const double t = static_cast<double>(n_) / fs_;
  ++n_;

  // --- Signal-path faults (before the channel: they happen at/near TX).
  double gain = 1.0;
  bool carrier_off = false;
  double drift_ppm = 0.0;
  const auto& events = schedule_.events();
  for (const FaultEvent& e : events) {
    if (t < e.start_s || t >= e.end_s()) continue;
    switch (e.kind) {
      case FaultKind::kRelayOff:
        carrier_off = true;
        break;
      case FaultKind::kDeepFade:
        gain *= db_to_amplitude(-e.fade_depth_db * fade_shape(e, t));
        break;
      case FaultKind::kClockDrift:
        drift_ppm += e.drift_ppm;
        break;
      default:
        break;
    }
  }

  Complex s = carrier_off ? Complex{0.0, 0.0} : x * (gain * tx_gain_lin_);

  if (has_drift_) {
    // The relay's cheap crystal runs fast/slow during a drift event; at
    // complex baseband that is a slowly growing fractional group delay.
    // The offset persists after the event (the clock was wrong for a
    // while; the stream stays shifted).
    drift_ring_[static_cast<std::size_t>(drift_write_ &
                                         (kDriftRingSize - 1))] = s;
    ++drift_write_;
    drift_delay_ += drift_ppm * 1e-6;
    drift_delay_ = std::clamp(
        drift_delay_, 0.0, static_cast<double>(kDriftRingSize - 2));
    double pos = static_cast<double>(drift_write_ - 1) - drift_delay_;
    if (pos < 0.0) pos = 0.0;
    const auto i0 = static_cast<std::uint64_t>(pos);
    const double frac = pos - static_cast<double>(i0);
    const Complex a = drift_ring_[static_cast<std::size_t>(
        i0 & (kDriftRingSize - 1))];
    const Complex b = drift_ring_[static_cast<std::size_t>(
        (i0 + 1) & (kDriftRingSize - 1))];
    s = a * (1.0 - frac) + b * frac;
  }

  Complex y = channel_.process(s);

  // --- Receiver-side interference (added after the channel, like any
  // external emitter the ear's antenna also picks up).
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    if (t < e.start_s || t >= e.end_s()) continue;
    if (e.kind == FaultKind::kJammer) {
      const double couple =
          jammer_channel_coupling(e.jammer_channel, active_channel_);
      const double amp = std::sqrt(db_to_power(e.jammer_power_db)) * couple;
      const double phi =
          kTwoPi * e.jammer_offset_hz * t + jammer_phase_[i];
      y += Complex{amp * std::cos(phi), amp * std::sin(phi)};
    } else if (e.kind == FaultKind::kImpulseNoise) {
      if (rng_.bernoulli(std::min(1.0, e.impulse_rate_hz / fs_))) {
        const double amp = e.impulse_amplitude * rng_.uniform(0.5, 1.5);
        const double phi = rng_.uniform(0.0, kTwoPi);
        y += Complex{amp * std::cos(phi), amp * std::sin(phi)};
      }
    }
  }
  return y;
}

void FaultInjector::set_tx_gain_db(double gain_db) {
  tx_gain_db_ = gain_db;
  tx_gain_lin_ = db_to_amplitude(gain_db);
}

ComplexSignal FaultInjector::process(std::span<const Complex> x) {
  // Fast path: an empty schedule at nominal TX power is the benign
  // channel, block-processed.
  if (schedule_.empty() && tx_gain_lin_ == 1.0) {
    n_ += x.size();
    return channel_.process(x);
  }
  ComplexSignal out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = process(x[i]);
  return out;
}

}  // namespace mute::rf
