#include "rf/spectrum_plan.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace mute::rf {

SpectrumPlanner::SpectrumPlanner(std::size_t relay_count,
                                 SpectrumPlannerOptions options)
    : opt_(options) {
  ensure(relay_count >= 1, "planner needs at least one relay");
  ensure(opt_.channel_count >= 1, "planner needs at least one channel");
  ensure(opt_.channel_count >= relay_count,
         "each relay needs its own channel (frequency-division coexistence)");
  ensure(opt_.penalty_decay_per_s >= 0.0, "decay rate must be >= 0");
  ensure(opt_.min_dwell_s >= 0.0, "dwell must be >= 0");
  relays_.resize(relay_count);
  // Initial frequency-division assignment: relay k on channel k, matching
  // assign_channels()' evenly pitched layout.
  for (std::size_t k = 0; k < relay_count; ++k) relays_[k].channel = k;
  penalty_.assign(opt_.channel_count, 0.0);
}

void SpectrumPlanner::decay_to(double now_s) {
  MUTE_RT_SCOPE("SpectrumPlanner::decay_to");
  const double dt = now_s - last_decay_s_;
  if (dt <= 0.0) return;
  const double f = std::exp(-opt_.penalty_decay_per_s * dt);
  for (double& p : penalty_) p *= f;
  for (RelayState& r : relays_) r.adverse *= f;
  last_decay_s_ = now_s;
}

void SpectrumPlanner::note_adverse(std::size_t relay, double now_s) {
  MUTE_RT_SCOPE("SpectrumPlanner::note_adverse");
  ensure(relay < relays_.size(), "relay index out of range");
  decay_to(now_s);
  RelayState& r = relays_[relay];
  r.adverse += 1.0;
  // The evidence indicts the channel the relay is on: warn the whole mesh
  // off it, not just this relay.
  penalty_[r.channel] += 1.0;
}

void SpectrumPlanner::note_clean(std::size_t relay, double now_s) {
  MUTE_RT_SCOPE("SpectrumPlanner::note_clean");
  ensure(relay < relays_.size(), "relay index out of range");
  decay_to(now_s);
  // Clean evidence actively pays down pressure beyond passive decay, so a
  // recovered link stops being a hop candidate quickly.
  RelayState& r = relays_[relay];
  r.adverse = std::max(0.0, r.adverse - 0.5);
}

bool SpectrumPlanner::occupied_by_peer(std::size_t channel,
                                       std::size_t relay) const {
  for (std::size_t k = 0; k < relays_.size(); ++k) {
    if (k != relay && relays_[k].channel == channel) return true;
  }
  return false;
}

PlannerAction SpectrumPlanner::plan(std::size_t relay, double now_s) {
  MUTE_RT_SCOPE("SpectrumPlanner::plan");
  ensure(relay < relays_.size(), "relay index out of range");
  decay_to(now_s);
  PlannerAction action;
  action.relay = relay;
  RelayState& r = relays_[relay];
  if (r.adverse < kHopThreshold) return action;
  if (now_s - r.last_action_s < opt_.min_dwell_s) return action;

  // Cleanest channel not occupied by a peer. Ties break toward the lowest
  // index, which makes the planner fully deterministic.
  std::size_t best = r.channel;
  double best_penalty = penalty_[r.channel];
  for (std::size_t c = 0; c < penalty_.size(); ++c) {
    if (c == r.channel || occupied_by_peer(c, relay)) continue;
    if (penalty_[c] < best_penalty - 1e-12) {
      best = c;
      best_penalty = penalty_[c];
    }
  }

  if (best != r.channel &&
      best_penalty + kHopMargin <= penalty_[r.channel]) {
    r.channel = best;
    r.adverse = 0.0;
    r.last_action_s = now_s;
    action.kind = PlannerActionKind::kHop;
    action.channel = best;
    return action;
  }

  // No cleaner channel to hop to (wideband interference, or everything is
  // penalized): escalate TX power toward the cap.
  if (r.tx_gain_db + kTxStepDb <= kTxMaxDb + 1e-9) {
    r.tx_gain_db += kTxStepDb;
    r.adverse = 0.0;
    r.last_action_s = now_s;
    action.kind = PlannerActionKind::kTxStep;
    action.tx_gain_db = r.tx_gain_db;
    return action;
  }

  // Fully escalated; halve the pressure so the planner re-evaluates after
  // more evidence instead of spinning every round.
  r.adverse *= 0.5;
  return action;
}

std::size_t SpectrumPlanner::channel_of(std::size_t relay) const {
  ensure(relay < relays_.size(), "relay index out of range");
  return relays_[relay].channel;
}

double SpectrumPlanner::tx_gain_db(std::size_t relay) const {
  ensure(relay < relays_.size(), "relay index out of range");
  return relays_[relay].tx_gain_db;
}

double SpectrumPlanner::channel_penalty(std::size_t channel) const {
  ensure(channel < penalty_.size(), "channel index out of range");
  return penalty_[channel];
}

double SpectrumPlanner::adverse_pressure(std::size_t relay) const {
  ensure(relay < relays_.size(), "relay index out of range");
  return relays_[relay].adverse;
}

}  // namespace mute::rf
