#pragma once

#include <cstddef>

#include "common/rt_annotations.hpp"
#include "common/types.hpp"

namespace mute::core {

/// Reasons the monitor currently (or last) flagged the link, as a bitmask.
struct LinkFlags {
  enum : unsigned {
    kNone = 0,
    kNonFinite = 1u << 0,  // NaN/Inf reached the reference stream
    kNoiseBurst = 1u << 1,  // demod noise surge (carrier loss / jammer)
    kSaturated = 1u << 2,   // sustained clipping at the reference input
    kSilent = 1u << 3,      // reference fell to the noise floor
  };
};

/// Thresholds for the streaming link-health estimator. The defaults are
/// tuned for the repo's FM chain at 16 kHz where healthy received audio
/// sits around 0.1 rms: when the 900 MHz carrier disappears, the FM
/// discriminator emits wideband noise that lands near 0.3 rms after
/// decimation — a sustained ~10 dB power surge, which is the primary
/// dropout signature.
struct LinkMonitorOptions {
  double short_tau_s = 0.002;   // fast power tracker (surge detector)
  double long_tau_s = 0.5;      // slow baseline tracker (frozen when bad)
  // Noise-burst detector: short-term power must exceed BOTH the ratio
  // against the (floored) long-term baseline and an absolute gate. The
  // absolute gate keeps a loud ambient onset after silence from being
  // mistaken for carrier loss.
  double dropout_power_ratio = 6.0;
  double dropout_min_power = 0.08;   // power ≙ 0.28 rms
  double power_floor = 1e-4;         // baseline denominator floor
  double saturation_level = 0.98;    // |x| at/above this counts as clipping
  // Amplitude below which the reference counts as candidate silence. Set
  // above the residue a captured FM discriminator leaves behind: a strong
  // co-channel jammer *captures* the demodulator and collapses its output
  // to ~1.5e-3 rms (measured), so jammer capture is detected as silence.
  double silence_threshold = 4e-3;
  // Silence is judged on its own slower power EMA: a captured
  // discriminator still emits isolated clicks (cycle slips), and against
  // the fast tracker each click would reset the silence evidence. Long
  // enough to dilute clicks, short enough to keep detection inside
  // silence_hold_s-scale latency.
  double silence_tau_s = 0.02;
  // Hysteresis holds, both directions (seconds of sustained evidence).
  double unhealthy_hold_s = 0.008;
  double silence_hold_s = 0.15;
  // Recovery must out-last a capture transition: while a jammer wrestles
  // the discriminator away from the carrier (~70 ms measured), the output
  // power sweeps right through the healthy range and no instantaneous
  // detector can tell it from a real recovery. Only evidence sustained
  // longer than that sweep counts.
  double recover_hold_s = 0.15;
};

/// Streaming per-sample health estimator for the received wireless
/// reference. Call `process()` with every reference sample; it returns the
/// sanitized sample (the input while the link is healthy, 0 while it is
/// not), so downstream per-sample code — which enforces MUTE_CHECK_FINITE —
/// never sees NaN/Inf or demodulator garbage.
///
/// Detectors: fast/slow power trackers (dropout-noise surge), a non-finite
/// sanity check, a saturation counter, and a silence squelch. All flags go
/// through sustained-evidence hysteresis in both directions so a single
/// odd sample neither trips nor clears the monitor. Allocation-free per
/// sample.
class LinkMonitor {
 public:
  LinkMonitor(const LinkMonitorOptions& options, double sample_rate);

  /// Push one received-reference sample; returns the sanitized sample.
  MUTE_RT_SAFE Sample process(Sample x);

  bool healthy() const { return healthy_; }
  /// Flags of the current (or, when healthy, most recent) fault episode.
  unsigned flags() const { return latched_flags_; }

  /// Distinct unhealthy episodes so far (including an ongoing one).
  std::size_t fault_episodes() const { return episodes_; }
  /// Total samples spent unhealthy.
  std::size_t unhealthy_samples() const { return unhealthy_samples_; }

 private:
  LinkMonitorOptions opts_;
  double alpha_short_;
  double alpha_long_;
  double alpha_silence_;
  double silence_power_;
  std::size_t unhealthy_hold_samples_;
  std::size_t silence_hold_samples_;
  std::size_t recover_hold_samples_;

  bool healthy_ = true;
  unsigned latched_flags_ = LinkFlags::kNone;
  double short_power_ = 0.0;
  double long_power_ = 0.0;
  double silence_ema_ = 0.0;
  std::size_t bad_streak_ = 0;
  std::size_t silent_streak_ = 0;
  std::size_t good_streak_ = 0;
  std::size_t episodes_ = 0;
  std::size_t unhealthy_samples_ = 0;
};

}  // namespace mute::core
