#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/rt_annotations.hpp"

namespace mute::rf {

/// Spectrum planning for co-existing relays (paper Section 6, "RF
/// interference and channel contention"): each relay streams continuously,
/// so coexistence is frequency-division — assign every relay its own FM
/// channel inside the 26 MHz 900 MHz ISM band and count how many fit.

/// Carson's-rule occupied bandwidth of an FM signal: 2 * (deviation + fm).
inline double carson_bandwidth_hz(double deviation_hz, double audio_bw_hz) {
  ensure(deviation_hz > 0 && audio_bw_hz > 0, "positive parameters required");
  return 2.0 * (deviation_hz + audio_bw_hz);
}

/// How many relays fit in `band_hz` with `guard_hz` between channels.
inline std::size_t relay_capacity(double band_hz, double channel_bw_hz,
                                  double guard_hz = 0.0) {
  ensure(band_hz > 0 && channel_bw_hz > 0, "positive parameters required");
  ensure(guard_hz >= 0, "guard must be non-negative");
  return static_cast<std::size_t>(band_hz / (channel_bw_hz + guard_hz));
}

/// Center frequencies (offsets from the band's lower edge) for `count`
/// relays. Throws when the band cannot hold them.
inline std::vector<double> assign_channels(std::size_t count, double band_hz,
                                           double channel_bw_hz,
                                           double guard_hz = 0.0) {
  ensure(count >= 1, "need at least one relay");
  ensure(relay_capacity(band_hz, channel_bw_hz, guard_hz) >= count,
         "band cannot hold this many relays");
  std::vector<double> centers;
  centers.reserve(count);
  const double pitch = channel_bw_hz + guard_hz;
  for (std::size_t i = 0; i < count; ++i) {
    centers.push_back(channel_bw_hz / 2.0 + static_cast<double>(i) * pitch);
  }
  return centers;
}

/// The 900 MHz ISM band the paper's relay uses (paper: 26 MHz wide).
inline constexpr double kIsmBandHz = 26e6;

/// ---------------------------------------------------------------------
/// Monitor-driven spectrum planning. The static helpers above answer "how
/// many relays fit"; the planner below answers "what do we do when the
/// channel a relay sits on goes bad" — the runtime half of coexistence on
/// a shared ISM band. It consumes LinkMonitor-style adverse evidence and
/// emits per-relay actions: hop to the cleanest free channel first, and
/// only when no cleaner channel exists, step TX power (hop -> hop -> TX
/// escalation). Everything is preallocated at construction; the advisory
/// path is RT-safe.

struct SpectrumPlannerOptions {
  /// ISM channels available to the mesh (the 26 MHz band holds 8 channels
  /// of ~3 MHz pitch comfortably; see relay_capacity()).
  std::size_t channel_count = 8;
  /// Exponential decay rate (1/s) of per-channel penalty and per-relay
  /// adverse pressure. ~0.5/s forgets a jammer burst in a few seconds.
  double penalty_decay_per_s = 0.5;
  /// Minimum dwell between actions on one relay. Rate-limits hopping so a
  /// wideband/jammer-everywhere fault cannot trigger a hop storm.
  double min_dwell_s = 0.25;
};

enum class PlannerActionKind {
  kNone,    // keep current tuning
  kHop,     // retune to `channel`
  kTxStep,  // raise TX power to `tx_gain_db`
};

struct PlannerAction {
  PlannerActionKind kind = PlannerActionKind::kNone;
  std::size_t relay = 0;
  std::size_t channel = 0;     // valid when kind == kHop
  double tx_gain_db = 0.0;     // valid when kind == kTxStep
};

/// Per-mesh spectrum planner. One instance supervises all relays: channel
/// penalties are global (a jammer seen by relay A warns relay B off that
/// channel), adverse pressure and dwell timers are per relay, and a hop
/// never lands on a channel another relay currently occupies.
///
/// Protocol per control round, per relay:
///   - note_adverse(relay, now_s) whenever the link monitor flags the
///     relay's stream unhealthy; note_clean(relay, now_s) otherwise.
///   - action = plan(relay, now_s); apply kHop via RelayLink::retune()
///     (latency cache intentionally survives — see relay.hpp) or kTxStep
///     via RelayLink::set_tx_gain_db().
class SpectrumPlanner {
 public:
  /// Adverse pressure a relay must accumulate before the planner acts.
  /// Each note_adverse() adds 1; with decay this is "a couple of adverse
  /// rounds in quick succession", filtering one-off blips.
  static constexpr double kHopThreshold = 2.0;
  /// A candidate channel must beat the current one by this much penalty
  /// before a hop is worth the retune transient.
  static constexpr double kHopMargin = 0.5;
  /// TX power escalation: step size and cap (dB above nominal).
  static constexpr double kTxStepDb = 3.0;
  static constexpr double kTxMaxDb = 6.0;

  SpectrumPlanner(std::size_t relay_count, SpectrumPlannerOptions options);

  /// Record monitor evidence for `relay` at stream time `now_s`. Adverse
  /// evidence penalizes the channel the relay is currently tuned to.
  MUTE_RT_SAFE void note_adverse(std::size_t relay, double now_s);
  MUTE_RT_SAFE void note_clean(std::size_t relay, double now_s);

  /// Decide the next action for `relay`. Mutates planner state when the
  /// action is not kNone (occupancy, dwell timer, adverse pressure), so
  /// the caller must apply the returned action.
  MUTE_RT_SAFE PlannerAction plan(std::size_t relay, double now_s);

  std::size_t relay_count() const { return relays_.size(); }
  std::size_t channel_count() const { return penalty_.size(); }
  std::size_t channel_of(std::size_t relay) const;
  double tx_gain_db(std::size_t relay) const;
  double channel_penalty(std::size_t channel) const;
  double adverse_pressure(std::size_t relay) const;

 private:
  MUTE_RT_SAFE void decay_to(double now_s);
  MUTE_RT_SAFE bool occupied_by_peer(std::size_t channel,
                                     std::size_t relay) const;

  struct RelayState {
    std::size_t channel = 0;
    double adverse = 0.0;      // decayed adverse pressure
    double tx_gain_db = 0.0;
    double last_action_s = -1e9;
  };

  SpectrumPlannerOptions opt_;
  std::vector<RelayState> relays_;
  std::vector<double> penalty_;  // per-channel, shared across the mesh
  double last_decay_s_ = 0.0;
};

}  // namespace mute::rf
