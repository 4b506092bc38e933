#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/rt_annotations.hpp"
#include "common/types.hpp"
#include "rf/rf_channel.hpp"

namespace mute::rf {

/// Kinds of RF-chain faults the injector can script. Each models a failure
/// mode the paper leaves open (Sections 4.4/6): the relay is a cheap
/// battery-powered IoT node on a shared ISM band, so power loss, co-channel
/// interference, fading and clock tolerance are the expected field reality,
/// not corner cases.
enum class FaultKind {
  kRelayOff,      // relay power loss: the carrier disappears entirely
  kJammer,        // narrowband co-channel interferer (another transmitter)
  kDeepFade,      // deep flat-fade episode (blockage / destructive multipath)
  kImpulseNoise,  // impulsive wideband interference (ignition, switching)
  kClockDrift,    // relay sample-clock drift in ppm (cheap crystal)
};

/// One timed fault event. Magnitude fields are per-kind; unused ones are
/// ignored. All times are in seconds of *stream time* (sample count /
/// sample rate of the injector), so a schedule is exactly reproducible for
/// a given seed regardless of block sizes.
struct FaultEvent {
  FaultKind kind = FaultKind::kRelayOff;
  double start_s = 0.0;
  double duration_s = 0.0;

  double jammer_offset_hz = 0.0;    // tone offset from our carrier
  double jammer_power_db = -10.0;   // relative to the unit FM envelope
  double fade_depth_db = 30.0;      // amplitude dip at the fade bottom
  double fade_ramp_s = 0.02;        // raised-cosine edges (fades are smooth)
  double impulse_rate_hz = 200.0;   // expected impulses per second
  double impulse_amplitude = 10.0;  // peak amplitude of one impulse
  double drift_ppm = 0.0;           // relay clock error while event active
  // ISM channel the jammer occupies. -1 (legacy default) means co-channel
  // wherever the victim tunes — the jammer follows the link, so hopping
  // cannot dodge it. >= 0 pins the interferer to one channel: it couples
  // at full power only while the link is tuned there, at the receiver's
  // adjacent-channel rejection one channel away, and negligibly beyond —
  // which is exactly what makes monitor-driven channel hopping effective.
  int jammer_channel = -1;

  double end_s() const { return start_s + duration_s; }
};

/// A deterministic script of timed fault events. Build with the fluent
/// helpers, hand it to a FaultInjector (usually via RelayConfig::faults).
class FaultSchedule {
 public:
  FaultSchedule() = default;

  FaultSchedule& relay_off(double start_s, double duration_s);
  /// `channel` >= 0 pins the jammer to that ISM channel (see
  /// FaultEvent::jammer_channel); the -1 default keeps the legacy
  /// co-channel follow-the-victim behaviour for existing call sites.
  FaultSchedule& jammer(double start_s, double duration_s,
                        double offset_hz, double power_db,
                        int channel = -1);
  FaultSchedule& deep_fade(double start_s, double duration_s,
                           double depth_db, double ramp_s = 0.02);
  FaultSchedule& impulse_noise(double start_s, double duration_s,
                               double rate_hz, double amplitude);
  FaultSchedule& clock_drift(double start_s, double duration_s, double ppm);

  /// Append every event of `other` (chaos-soak schedules compose several
  /// canned scenarios onto one relay). Events may overlap; the injector
  /// applies all active events each sample.
  FaultSchedule& merge(const FaultSchedule& other);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  bool has(FaultKind kind) const;

  /// End of the last scheduled event (0 for an empty schedule).
  double end_s() const;

 private:
  FaultSchedule& add(FaultEvent event);
  std::vector<FaultEvent> events_;
};

/// The impaired wireless channel: a seeded, deterministic fault-injection
/// wrapper around RfChannel. Signal-path faults (relay power-off, deep
/// fades, clock drift) act on the transmitted baseband before the benign
/// channel model; interference faults (jammer tone, impulses) are added at
/// the receiver, after the channel, like any external emitter would be.
///
/// Per-sample processing is allocation-free after construction; all fault
/// state (drift ring, jammer phases) is preallocated.
class FaultInjector {
 public:
  FaultInjector(FaultSchedule schedule, RfChannelParams channel_params,
                double sample_rate, std::uint64_t seed);

  MUTE_RT_SAFE Complex process(Complex x);
  ComplexSignal process(std::span<const Complex> x);

  /// Rewind to stream time zero (also resets the wrapped channel).
  void reset();

  /// Replace the schedule; fault state restarts from stream time zero.
  void set_schedule(FaultSchedule schedule);

  const FaultSchedule& schedule() const { return schedule_; }

  /// Stream time consumed so far, in seconds.
  double elapsed_s() const { return static_cast<double>(n_) / fs_; }

  /// Retune the link to another ISM channel (spectrum planner action).
  /// Takes effect at the next processed sample; the fault clock, channel
  /// model, and schedule are untouched — the channel index only gates how
  /// strongly channel-pinned jammers couple. RT-safe and allocation-free.
  MUTE_RT_SAFE void retune(std::size_t channel) { active_channel_ = channel; }
  std::size_t channel() const { return active_channel_; }

  /// TX power step in dB applied to the transmitted baseband before the
  /// channel (planner escalation). Interference is additive at the
  /// receiver, so a TX step buys SIR directly. Does not resurrect a
  /// powered-off carrier.
  MUTE_RT_SAFE void set_tx_gain_db(double gain_db);
  double tx_gain_db() const { return tx_gain_db_; }

  /// Group-delay shift accumulated by clock-drift events, in (RF) samples.
  /// Non-zero drift invalidates any latency measured before the event —
  /// see RelayLink::invalidate_latency_cache().
  double accumulated_drift_samples() const { return drift_delay_; }

 private:
  void rebuild_fault_state();

  FaultSchedule schedule_;
  RfChannel channel_;
  double fs_;
  std::uint64_t seed_;
  Rng rng_;
  std::uint64_t n_ = 0;

  // Spectrum state: which ISM channel the link is tuned to, and the
  // planner-commanded TX power step (linear amplitude).
  std::size_t active_channel_ = 0;
  double tx_gain_db_ = 0.0;
  double tx_gain_lin_ = 1.0;

  // Jammer oscillators: one static phase per event (index-aligned).
  std::vector<double> jammer_phase_;

  // Clock-drift fractional-delay ring (engaged only when the schedule
  // contains drift events). Power-of-two length; the accumulated delay is
  // clamped to the ring so a pathological schedule cannot index stale data.
  bool has_drift_ = false;
  std::vector<Complex> drift_ring_;
  std::uint64_t drift_write_ = 0;
  double drift_delay_ = 0.0;
};

}  // namespace mute::rf
