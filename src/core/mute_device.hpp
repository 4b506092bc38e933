#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "adaptive/sysid.hpp"
#include "audio/generators.hpp"
#include "common/rt_annotations.hpp"
#include "core/lanc.hpp"
#include "core/link_monitor.hpp"
#include "core/relay_select.hpp"
#include "core/shadow_filter.hpp"
#include "core/timing.hpp"

namespace mute::core {

/// RMS of the training noise the device plays through its anti-noise
/// speaker during the power-up secondary-path calibration.
inline constexpr double kTrainingRms = 0.1;

/// With a converged shadow standing by, a flagged link only gets this long
/// to recover before the association hands over — the full hold timeout
/// exists to amortize a COLD re-acquisition, and a shadow handoff is
/// nearly free.
inline constexpr double kShadowFastHandoffS = 0.02;

/// Standby measurements stay eligible this long after the round that
/// produced them. Confident rounds only happen while the ear hears the
/// full ambient field (kListening / kHolding — during cancellation the
/// residual is deliberately quiet), so the list is refreshed rarely and
/// must survive a long active stretch. A generous age only risks a stale
/// *lookahead estimate*: link health is gated in real time by the
/// per-relay monitors, and a handoff to a relay whose geometry changed
/// is corrected by the normal adverse-evidence path afterwards.
inline constexpr double kStandbyMaxAgeS = 10.0;

/// Configuration of a streaming MUTE ear device.
struct MuteDeviceConfig {
  double sample_rate = kDefaultSampleRate;
  std::size_t relay_count = 1;

  // Power-up secondary-path calibration (plays training noise).
  double calibration_s = 2.0;
  std::size_t secondary_taps = 256;

  // Relay selection (Section 4.2): listen this long before choosing, and
  // re-evaluate on the same cadence while running.
  double selection_period_s = 1.0;
  RelaySelectorOptions selection{};

  // LANC configuration. `fxlms.noncausal_taps` is ignored: N is derived
  // from the measured lookahead of the chosen relay minus the latency
  // budget, capped by `max_noncausal_taps`.
  LancOptions lanc{};
  std::size_t max_noncausal_taps = 192;
  LatencyBudget latency = LatencyBudget::mute_ear_device();

  // Link supervision: one LinkMonitor per relay watches the forwarded
  // reference. When the active relay's link is flagged the device enters
  // kHolding (adaptation frozen, anti-noise faded out); if the link stays
  // bad past `hold_timeout_s` the association is handed to a warm standby
  // (see `enable_handoff`) or dropped back to kListening.
  bool link_supervision = true;
  LinkMonitorOptions link_monitor{};
  double hold_timeout_s = 1.5;
  // FxLMS divergence guard installed into the LANC engine (see
  // FxlmsOptions::weight_norm_limit); 0 disables.
  double weight_norm_limit = 100.0;

  // Warm-standby failover: keep every confident positive-lookahead relay
  // from each selection round as a ranked standby list, and on failure
  // re-target the association to the runner-up (State::kHandoff) instead
  // of resetting to kListening. Disable to recover the drop-and-relisten
  // behaviour — bench/failover compares the two policies head to head.
  // The standby list ages out after kStandbyMaxAgeS.
  bool enable_handoff = true;

  // Shadow pre-convergence (tentpole): while kRunning, the best-scored
  // standby relay's stream trickle-adapts a background filter predicting
  // the primary's speaker feed (see core/shadow_filter.hpp), so a handoff
  // to that relay installs a converged filter + primed history instead of
  // paying the ~total_taps history-refill gap.
  bool enable_shadow = true;
  ShadowFilterOptions shadow{};

  std::uint64_t seed = 1;
};

/// The streaming ear device: the online counterpart of the offline
/// `sim::run_anc_simulation`. Drive it one audio tick at a time:
///
///   Sample speaker = device.tick(relay_samples, error_mic_sample);
///
/// where `relay_samples` holds the newest forwarded sample from each
/// relay and `error_mic_sample` is the microphone's reading of the
/// PREVIOUS tick's acoustic field (the natural causal ordering of real
/// hardware). The device handles its own lifecycle:
///
///   kCalibrating  — plays training noise, identifies the secondary path;
///   kListening    — silent; GCC-PHAT-correlates every relay against the
///                   error mic until one offers positive lookahead;
///   kRunning      — LANC on the chosen relay; keeps re-running selection
///                   each period and re-arms on sustained adverse evidence
///                   (two confident rounds of the SAME claim);
///   kHolding      — the active relay's link is flagged (dropout, garbage,
///                   silence): adaptation frozen, anti-noise faded to zero
///                   (never louder than passive). Resumes kRunning if the
///                   link recovers within `hold_timeout_s`; on timeout the
///                   association is handed to a warm standby, or dropped
///                   back to kListening when none qualifies;
///   kHandoff      — the association was just re-targeted to a standby
///                   relay: the controller keeps its converged weights
///                   (remapped to the new lookahead window, preloaded from
///                   the per-(relay, profile) cache when available) and
///                   stays held for `total_taps` ticks while the engine
///                   history refills with the new relay's stream, then
///                   fades back in and returns to kRunning.
class MuteDevice {
 public:
  enum class State { kCalibrating, kListening, kRunning, kHolding, kHandoff };

  explicit MuteDevice(MuteDeviceConfig config);

  /// One audio tick; returns the sample for the anti-noise speaker.
  MUTE_RT_SAFE Sample tick(std::span<const Sample> relay_samples,
                           Sample error_sample);

  State state() const { return state_; }
  std::optional<std::size_t> active_relay() const { return active_relay_; }

  /// Measured lookahead of the active relay (seconds; 0 before selection).
  double measured_lookahead_s() const { return lookahead_s_; }

  /// Non-causal taps of the running LANC engine (0 before selection).
  std::size_t noncausal_taps() const;

  /// Secondary-path calibration result (empty before calibration ends).
  const adaptive::SysIdResult& calibration() const { return calibration_; }

  /// Per-relay link monitor (nullptr when link supervision is off).
  const LinkMonitor* link_monitor(std::size_t relay) const {
    return relay < monitors_.size() ? &monitors_[relay] : nullptr;
  }
  /// Times the device entered kHolding.
  std::size_t hold_count() const { return hold_count_; }
  /// Times the LANC divergence guard rolled the weights back, summed over
  /// every controller the device has built.
  std::size_t weight_rollback_count() const;

  // --- Failover diagnostics -------------------------------------------
  /// Times the association was re-targeted via State::kHandoff.
  std::size_t handoff_count() const { return handoff_count_; }
  /// Duration of the most recent re-acquisition gap: seconds from leaving
  /// kRunning to re-entering it (0.0 until the first such round trip).
  double last_reacquisition_gap_s() const { return last_gap_s_; }
  /// Longest re-acquisition gap seen over the device's lifetime — the
  /// quantity the chaos-soak invariants bound.
  double max_reacquisition_gap_s() const { return max_gap_s_; }
  /// Handoffs that installed a shadow-pre-converged filter (subset of
  /// handoff_count()).
  std::size_t shadow_handoff_count() const { return shadow_handoff_count_; }
  /// The shadow pre-convergence filter (nullptr before the first
  /// association or when disabled).
  const ShadowFilter* shadow() const {
    return shadow_.has_value() ? &*shadow_ : nullptr;
  }
  /// Seconds each relay has spent as the active kRunning association.
  double relay_active_s(std::size_t relay) const;
  /// Current warm-standby ranking (descending lookahead; empty when no
  /// recent round qualified anyone or the list aged out).
  std::span<const RelayMeasurement> standby() const { return standby_; }

  const MuteDeviceConfig& config() const { return config_; }

 private:
  enum class AdverseCause { kNone, kNoChosen, kRivalWon };

  Sample tick_impl(std::span<const Sample> relay_samples,
                   Sample error_sample);
  MUTE_RT_ESCAPE(
      "end of calibration: copies the identified taps out and releases "
      "the identifier, exactly once per power-up, not per sample; "
      "DESIGN.md \u00a711")
  void finish_calibration();
  MUTE_RT_ESCAPE(
      "selection-round landing: runs once per selection_period_s (1 s "
      "default), re-ranks relays and may re-associate; DESIGN.md \u00a711")
  void handle_selection(const RelaySelection& selection);
  MUTE_RT_ESCAPE(
      "standby-list refresh inside a selection round (copies the ranked "
      "vector); same once-per-period cadence as handle_selection")
  void update_standby(const RelaySelection& selection);
  std::optional<RelayMeasurement> pick_standby() const;
  bool relay_healthy(std::size_t relay) const;
  MUTE_RT_ESCAPE(
      "association transition (new/retargeted LANC controller); runs on "
      "state changes only, paired with hold/fade on the audio side")
  void associate(const RelayMeasurement& chosen);
  MUTE_RT_ESCAPE(
      "warm-standby handoff transition: cache store/load + weight remap, "
      "runs once per failover, not per sample")
  void begin_handoff(const RelayMeasurement& target);
  MUTE_RT_ESCAPE(
      "association teardown on hold timeout / sustained adverse evidence; "
      "runs on state transitions only, not per sample")
  void drop_association();
  bool note_adverse_round(AdverseCause cause, std::size_t rival);
  void reset_adverse();
  MUTE_RT_ESCAPE(
      "shadow target (re)assignment inside a selection round; allocates "
      "only when the target actually changes, same cadence as "
      "update_standby")
  void refresh_shadow_target();
  MUTE_RT_SAFE void shadow_observe(std::span<const Sample> feed, Sample y);
  MUTE_RT_SAFE void shadow_track(std::span<const Sample> feed);
  /// The standby-list measurement for the shadow's converged target, if it
  /// is still ranked, healthy, and not the active relay.
  std::optional<RelayMeasurement> shadow_handoff_candidate() const;
  std::size_t taps_for_lookahead(double lookahead_s) const;

  MuteDeviceConfig config_;
  State state_ = State::kCalibrating;

  // Calibration machinery. The identifier fits each (training sample,
  // error-mic sample) pair as it arrives; it is built in the constructor and
  // released when calibration ends, so the device does not grow after
  // power-up and keeps no calibration record.
  audio::WhiteNoiseSource training_;
  std::unique_ptr<adaptive::PathIdentifier> identifier_;
  Sample last_training_sample_ = 0.0f;
  adaptive::SysIdResult calibration_{};

  // Selection machinery.
  RelaySelector selector_;
  std::optional<std::size_t> active_relay_;
  double lookahead_s_ = 0.0;
  // Relay lead (seconds) the CURRENT engine weights converged at. Unlike
  // lookahead_s_ it survives drop_association(), because the weights do
  // too — a later warm re-association needs it to compute the remap shift.
  double weights_lookahead_s_ = 0.0;

  // The running controller. Created at the first association and kept for
  // the life of the device afterwards: it owns the per-(relay, profile)
  // filter cache that makes re-association and handoff warm. A cold
  // re-association (handoff disabled) rebuilds it; `retired_rollbacks_`
  // keeps the guard count of the controllers it replaced.
  std::optional<LancController> lanc_;
  std::size_t retired_rollbacks_ = 0;

  // Link supervision (empty when disabled). `sanitized_` is the per-tick
  // squelched copy of the relay feed, preallocated so tick() never
  // allocates for it.
  std::vector<LinkMonitor> monitors_;
  Signal sanitized_;
  std::size_t hold_timeout_samples_ = 0;
  std::size_t hold_elapsed_ = 0;
  std::size_t hold_count_ = 0;

  // Warm-standby state (tentpole). The list is the `ranked` output of the
  // last selection round that qualified anyone; it ages out after
  // standby_max_age_samples_ ticks. `handoff_settle_` counts the held
  // ticks remaining before a handoff fades back in.
  std::vector<RelayMeasurement> standby_;
  std::size_t standby_age_ = 0;
  std::size_t standby_max_age_samples_ = 0;
  std::size_t handoff_settle_ = 0;

  // Shadow pre-convergence (tentpole). Created with the first association
  // (it mirrors the LANC engine's FxlmsOptions); lives for the device.
  std::optional<ShadowFilter> shadow_;
  std::size_t shadow_fast_samples_ = 0;
  std::size_t shadow_handoff_count_ = 0;

  // Re-selection hysteresis: while cancellation is active the error mic is
  // (by design!) quiet, so GCC-PHAT rounds lose confidence or mis-peak.
  // A low-confidence round is treated as evidence that cancellation works;
  // only two consecutive confident rounds making the SAME adverse claim
  // (same cause — and for kRivalWon, the same rival) change the
  // association. Pooling different claims in one counter let a "nobody
  // qualified" round plus a "relay B won" round evict a healthy relay.
  AdverseCause adverse_cause_ = AdverseCause::kNone;
  std::size_t adverse_rival_ = 0;
  std::size_t adverse_rounds_ = 0;

  // Diagnostics (maintained by the tick() wrapper, allocation-free).
  std::size_t handoff_count_ = 0;
  std::uint64_t tick_count_ = 0;
  std::uint64_t gap_start_tick_ = 0;
  double last_gap_s_ = 0.0;
  double max_gap_s_ = 0.0;
  std::vector<std::uint64_t> relay_active_ticks_;
};

}  // namespace mute::core
