#include "core/lanc.hpp"

#include <algorithm>
#include <bit>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/math_utils.hpp"

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

  if (opts_.engine == LancEngineKind::kFdBlock) {
    const std::size_t lookahead = opts_.fxlms.noncausal_taps;
    ensure(lookahead >= 1,
           "kFdBlock needs lookahead: the block pipeline delay is absorbed "
           "by the acoustic lead (use kTimeDomain for causal ANC)");
    if (opts_.fd_block == 0) {
      // Default: half the lead (floored to a power of two) goes to the
      // block pipeline, the rest stays with the filter as future taps —
      // claiming the whole lead for the block would leave the engine no
      // anticipation at all.
      opts_.fd_block = std::bit_floor(
          std::min<std::size_t>(std::max<std::size_t>(lookahead / 2, 1), 256));
    }
    ensure(is_pow2(opts_.fd_block), "fd_block must be a power of two");
    ensure(opts_.fd_block <= lookahead,
           "fd_block must fit inside the lookahead (block latency is only "
           "free up to the acoustic lead)");
    mute::adaptive::FdFxlmsOptions fd;
    fd.causal_taps = opts_.fxlms.causal_taps;
    // The pipeline is one block deep, so the engine sees the advanced
    // stream effectively delayed by fd_block: its future-tap window
    // shrinks by exactly that much and total cancellation span is
    // preserved sample for sample.
    fd.noncausal_taps = lookahead - opts_.fd_block;
    fd.block = opts_.fd_block;
    fd.mu = opts_.fxlms.mu;
    fd.leakage = opts_.fxlms.leakage;
    fd_engine_ = std::make_unique<mute::adaptive::FdFxlmsEngine>(
        engine_.secondary_path(), fd);
    fd_in_.assign(opts_.fd_block, Sample{0});
    fd_out_.assign(opts_.fd_block, Sample{0});
    fd_err_.assign(opts_.fd_block, Sample{0});
  }
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
    y = fd_engine_ ? fd_tick(x_advanced) : engine_.step_output(x_advanced);
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

Sample LancController::fd_tick(Sample x_advanced) {
  const std::size_t block = fd_engine_->block_size();
  // Flush a filled input block lazily at the START of the tick: the error
  // window for the previous output block completed in the observe_error
  // call just before this, so adapt_block always saw the spectrum ring
  // its errors were produced by.
  if (fd_in_fill_ == block) {
    fd_engine_->process_block(std::span<const Sample>(fd_in_.data(), block),
                              std::span<Sample>(fd_out_.data(), block));
    fd_in_fill_ = 0;
    fd_out_pos_ = 0;
    fd_out_ready_ = true;
    fd_can_adapt_ = true;
    // Re-align the error window to this block (only moves anything when
    // observe_error ticks were skipped — e.g. around a retarget).
    fd_err_fill_ = 0;
    fd_err_dirty_ = false;
  }
  fd_in_[fd_in_fill_++] = x_advanced;
  // First block of the run has nothing to play yet: silence, exactly the
  // pipeline fill the lookahead budget already paid for.
  return fd_out_ready_ ? fd_out_[fd_out_pos_++] : Sample{0};
}

void LancController::observe_error(Sample error) {
  if (fd_engine_) {
    // Keep the window position moving even while holding so block
    // alignment survives the hold; the contaminated window is discarded.
    if (holding_) fd_err_dirty_ = true;
    fd_err_[fd_err_fill_++] = error;
    if (fd_err_fill_ == fd_engine_->block_size()) {
      if (fd_can_adapt_ && !fd_err_dirty_ && !holding_) {
        fd_engine_->adapt_block(
            std::span<const Sample>(fd_err_.data(), fd_err_.size()));
      }
      fd_can_adapt_ = false;
      fd_err_fill_ = 0;
      fd_err_dirty_ = false;
    }
    return;
  }
  if (holding_) return;  // adaptation frozen while the link is flagged
  engine_.adapt(error);
}

void LancController::hold() {
  holding_ = true;
  // The link monitor needs sustained evidence before flagging, so by the
  // time we get here the engine has spent the detection latency adapting
  // on garbage. Rewind to the last-known-good snapshot (no-op when the
  // weight-norm guard is disabled). The block engine has no snapshot
  // machinery: its error windows are discarded for the whole hold (see
  // observe_error), so at most one in-flight block of updates came from
  // garbage — the window the fault started in.
  if (!fd_engine_) engine_.restore_snapshot();
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
    const auto w = weight_snapshots_.empty() ? active_weights()
                                             : weight_snapshots_.front();
    cache_.store(cache_key(relay_, current_profile_), w);
  }
  // N is the *controller* lookahead on both engines; for the block engine
  // the source-time shift is identical because the one-block pipeline
  // delay cancels: (N_old - B) - (N_new - B) == N_old - N_new.
  const auto old_taps = static_cast<std::ptrdiff_t>(lookahead_samples());
  const std::ptrdiff_t shift =
      (old_taps - static_cast<std::ptrdiff_t>(new_noncausal_taps)) +
      advance_shift_samples;
  if (fd_engine_) {
    ensure(new_noncausal_taps >= fd_engine_->block_size(),
           "new lookahead must still cover the block pipeline delay");
    fd_engine_->retarget_noncausal(
        new_noncausal_taps - fd_engine_->block_size(), shift);
    reset_fd_pipeline();  // buffered blocks belong to the old relay stream
  } else {
    engine_.retarget_noncausal(new_noncausal_taps, shift);
  }
  if (const auto cached = cache_.load(cache_key(new_relay, current_profile_));
      cached && cached->size() == active_total_taps()) {
    install_weights(*cached);
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
  // Shadow filters pre-converge on the time-domain engine; their
  // sample-granular history priming has no block-engine equivalent (the
  // spectrum rings refill in P blocks anyway, bounded by the lookahead).
  ensure(!fd_engine_,
         "install_converged requires the time-domain engine "
         "(per-sample history priming)");
  ensure(weights.size() == engine_.total_taps(),
         "converged weights must match the engine's tap layout");
  ensure(x_newest_first.size() == engine_.total_taps(),
         "reference window must match the engine's tap layout");
  // set_weights adopts the vector as the rollback snapshot when it sits
  // inside the guard band, so a later hold() keeps the install.
  engine_.set_weights(weights);
  engine_.prime_history(x_newest_first);
  cache_.store(cache_key(relay_, current_profile_), weights);
}

std::vector<double> LancController::active_weights() const {
  return fd_engine_ ? fd_engine_->weights() : engine_.weights();
}

std::size_t LancController::active_total_taps() const {
  return fd_engine_ ? fd_engine_->total_taps() : engine_.total_taps();
}

void LancController::install_weights(std::span<const double> w) {
  if (fd_engine_) {
    fd_engine_->set_weights(w);
  } else {
    engine_.set_weights(w);
  }
}

void LancController::reset_fd_pipeline() {
  if (!fd_engine_) return;
  std::fill(fd_in_.begin(), fd_in_.end(), Sample{0});
  std::fill(fd_out_.begin(), fd_out_.end(), Sample{0});
  std::fill(fd_err_.begin(), fd_err_.end(), Sample{0});
  fd_in_fill_ = 0;
  fd_out_pos_ = 0;
  fd_err_fill_ = 0;
  fd_out_ready_ = false;
  fd_can_adapt_ = false;
  fd_err_dirty_ = false;
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

  weight_snapshots_.push_back(active_weights());
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
  // (N is the controller lookahead: engine pipeline delays don't move
  // the wavefront.)
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
    cache_.store(cache_key(relay_, current_profile_),
                 weight_snapshots_.front());
  } else {
    cache_.store(cache_key(relay_, current_profile_), active_weights());
  }
  // ...and restore the incoming profile's filter if we have met it before
  // ON THIS RELAY (otherwise keep adapting from the current weights: the
  // first encounter converges by gradient descent, exactly like classic
  // ANC). The length check guards against an entry recorded at a
  // different lookahead sizing of the same relay.
  if (const auto cached = cache_.load(cache_key(relay_, pending_profile_));
      cached && cached->size() == active_total_taps()) {
    install_weights(*cached);
  }
  // Old-profile snapshots are meaningless for the incoming profile.
  weight_snapshots_.clear();
  current_profile_ = pending_profile_;
  ++switch_count_;
}

void LancController::reset() {
  engine_.reset();
  if (fd_engine_) {
    fd_engine_->reset();
    reset_fd_pipeline();
  }
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
