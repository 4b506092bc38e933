#include "core/lanc.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace mute::core {

LancController::LancController(std::vector<double> secondary_path_estimate,
                               LancOptions options)
    : opts_(options),
      engine_(std::move(secondary_path_estimate), options.fxlms),
      extractor_(options.sample_rate, /*fft_size=*/kProfileFrame),
      frame_buffer_(kProfileFrame) {
  // Snapshots must reach back past the hysteresis window plus the
  // scheduled-swap countdown (both measured in profiler frames).
  snapshot_depth_ = options.switch_hysteresis +
                    engine_.noncausal_taps() / kProfileHop + 2;
  const double ramp_samples = kHoldRampS * options.sample_rate;
  gain_step_ = ramp_samples < 1.0 ? 1.0 : 1.0 / ramp_samples;
}

Sample LancController::tick(Sample x_advanced) {
  MUTE_CHECK_FINITE(x_advanced, "LANC advanced reference sample");
  // Profiling is control-plane work (signature extraction, weight
  // snapshots, cache updates) and is allowed to allocate; the signal path
  // below it is not. See DESIGN.md "Static analysis & real-time safety".
  // It pauses while holding: a squelched (zeroed) reference would be
  // classified as a "silence" profile and trigger a bogus swap.
  if (opts_.profiling && !holding_) run_profiler(x_advanced);
  Sample y;
  {
    MUTE_RT_SCOPE("LancController::tick/signal-path");
    y = engine_.step_output(x_advanced);
    // Slew the output gain toward its target so hold() fades the
    // anti-noise out (never louder than passive on a dead reference) and
    // resume() fades it back in without a click.
    const double target = holding_ ? 0.0 : 1.0;
    if (output_gain_ < target) {
      output_gain_ = std::min(target, output_gain_ + gain_step_);
    } else if (output_gain_ > target) {
      output_gain_ = std::max(target, output_gain_ - gain_step_);
    }
    y = static_cast<Sample>(static_cast<double>(y) * output_gain_);
  }
  MUTE_CHECK_FINITE(y, "LANC anti-noise output sample");
  if (opts_.profiling && !holding_ && switch_countdown_ >= 0) {
    if (switch_countdown_ == 0) apply_pending_switch();
    --switch_countdown_;
  }
  return y;
}

void LancController::observe_error(Sample error) {
  if (holding_) return;  // adaptation frozen while the link is flagged
  engine_.adapt(error);
}

void LancController::hold() {
  holding_ = true;
  // The link monitor needs sustained evidence before flagging, so by the
  // time we get here the engine has spent the detection latency adapting
  // on garbage. Rewind to the last-known-good snapshot (no-op when the
  // weight-norm guard is disabled).
  engine_.restore_snapshot();
}

void LancController::resume() { holding_ = false; }

void LancController::retarget(std::size_t new_relay,
                              std::size_t new_noncausal_taps,
                              std::ptrdiff_t advance_shift_samples,
                              bool outgoing_flagged) {
  // Fault-aware caching: a link that is flagged right now spent its
  // detection latency feeding garbage; even the rolled-back snapshot is at
  // most "last known good", so prefer keeping the relay's previous cache
  // entry (converged in health) over overwriting it from a faulted exit.
  if (!outgoing_flagged) {
    const auto w = weight_snapshots_.empty() ? engine_.weights()
                                             : weight_snapshots_.front();
    cache_.store({relay_, current_profile_}, w);
  }
  const auto old_taps = static_cast<std::ptrdiff_t>(lookahead_samples());
  const std::ptrdiff_t shift =
      (old_taps - static_cast<std::ptrdiff_t>(new_noncausal_taps)) +
      advance_shift_samples;
  engine_.retarget_noncausal(new_noncausal_taps, shift);
  if (const auto cached = cache_.load({new_relay, current_profile_});
      cached && cached->size() == engine_.total_taps()) {
    engine_.set_weights(*cached);
  }
  // Transition state watched the old relay's stream: snapshots would
  // cache misaligned weights and a pending swap was scheduled against the
  // old lookahead.
  weight_snapshots_.clear();
  recent_ids_.clear();
  switch_countdown_ = -1;
  relay_ = new_relay;
}

void LancController::install_converged(
    std::span<const double> weights, std::span<const double> x_newest_first) {
  ensure(weights.size() == engine_.total_taps(),
         "converged weights must match the engine's tap layout");
  ensure(x_newest_first.size() == engine_.total_taps(),
         "reference window must match the engine's tap layout");
  // set_weights adopts the vector as the rollback snapshot when it sits
  // inside the guard band, so a later hold() keeps the install.
  engine_.set_weights(weights);
  engine_.prime_history(x_newest_first);
  cache_.store({relay_, current_profile_}, weights);
}

void LancController::run_profiler(Sample x_advanced) {
  // Rolling frame of the advanced stream (O(1) push, contiguous window).
  frame_buffer_.push(x_advanced);
  if (frame_fill_ < frame_buffer_.size()) {
    ++frame_fill_;
    return;
  }
  if (++hop_counter_ < kProfileHop) return;
  hop_counter_ = 0;

  weight_snapshots_.push_back(engine_.weights());
  if (weight_snapshots_.size() > snapshot_depth_) {
    weight_snapshots_.pop_front();
  }

  const auto sig = extractor_.extract(frame_buffer_.window());
  const std::size_t id = classifier_.classify(sig);

  recent_ids_.push_back(id);
  if (recent_ids_.size() > opts_.switch_hysteresis) recent_ids_.pop_front();
  if (recent_ids_.size() < opts_.switch_hysteresis ||
      switch_countdown_ >= 0) {
    return;
  }
  // Schedule a switch only when every frame in the window disagrees with
  // the current profile; the target is the window's modal id.
  std::size_t disagree = 0;
  for (std::size_t v : recent_ids_) {
    if (v != current_profile_) ++disagree;
  }
  if (disagree < recent_ids_.size()) return;
  std::size_t best_id = recent_ids_.back();
  std::size_t best_count = 0;
  for (std::size_t v : recent_ids_) {
    std::size_t count = 0;
    for (std::size_t w : recent_ids_) count += (w == v);
    if (count > best_count) {
      best_count = count;
      best_id = v;
    }
  }
  // Demand a confident majority: if the window is a grab-bag of different
  // ids (messy transition, classifier noise), wait rather than jump to a
  // profile that may be wrong — a bad swap costs more than a late one.
  if (best_count * 3 < recent_ids_.size() * 2) return;
  // The transition was observed in the lookahead stream; it will reach
  // the error microphone N samples from now — schedule the swap there.
  pending_profile_ = best_id;
  switch_countdown_ = static_cast<std::ptrdiff_t>(lookahead_samples());
  recent_ids_.clear();
}

void LancController::apply_pending_switch() {
  if (pending_profile_ == current_profile_) return;
  // Preserve the converged state of the outgoing profile — from BEFORE
  // the transition was even suspected (oldest snapshot), not the current
  // weights, which have been adapting toward the new profile throughout
  // the hysteresis window.
  if (!weight_snapshots_.empty()) {
    cache_.store({relay_, current_profile_}, weight_snapshots_.front());
  } else {
    cache_.store({relay_, current_profile_}, engine_.weights());
  }
  // ...and restore the incoming profile's filter if we have met it before
  // ON THIS RELAY (otherwise keep adapting from the current weights: the
  // first encounter converges by gradient descent, exactly like classic
  // ANC). The length check guards against an entry recorded at a
  // different lookahead sizing of the same relay.
  if (const auto cached = cache_.load({relay_, pending_profile_});
      cached && cached->size() == engine_.total_taps()) {
    engine_.set_weights(*cached);
  }
  // Old-profile snapshots are meaningless for the incoming profile.
  weight_snapshots_.clear();
  current_profile_ = pending_profile_;
  ++switch_count_;
}

void LancController::reset() {
  engine_.reset();
  classifier_.reset();
  cache_.clear();
  weight_snapshots_.clear();
  frame_buffer_.fill(0.0f);
  frame_fill_ = 0;
  hop_counter_ = 0;
  current_profile_ = 0;
  recent_ids_.clear();
  switch_countdown_ = -1;
  pending_profile_ = 0;
  switch_count_ = 0;
  holding_ = false;
  output_gain_ = 1.0;
}

}  // namespace mute::core
