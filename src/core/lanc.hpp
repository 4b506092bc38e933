#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <vector>

#include "adaptive/fd_fxlms.hpp"
#include "adaptive/fxlms.hpp"
#include "common/rt_annotations.hpp"
#include "common/types.hpp"
#include "core/filter_cache.hpp"
#include "core/profile.hpp"
#include "dsp/ring_history.hpp"

namespace mute::core {

/// Which adaptive engine runs the LANC signal path.
///
/// kTimeDomain is the per-sample FxlmsEngine — the pinned reference whose
/// latency model matches the paper's hardware story. kFdBlock is the
/// partitioned-block frequency-domain engine (adaptive::FdFxlmsEngine):
/// it buffers the advanced reference into blocks of `fd_block` samples
/// and produces anti-noise one block behind, which LANC absorbs in the
/// acoustic lead — the engine runs with `noncausal_taps - fd_block`
/// future taps, so block size ≤ lookahead adds ZERO effective latency
/// while cutting the per-sample cost from O(taps) to O(log taps)
/// (DESIGN.md §13).
enum class LancEngineKind {
  kTimeDomain,
  kFdBlock,
};

/// Graceful degradation: seconds over which the anti-noise output ramps to
/// zero after hold() (and back to unity after resume()). Short enough to
/// beat a fault's damage, long enough to avoid an audible click.
inline constexpr double kHoldRampS = 0.008;

/// Predictive sound profiling: samples per signature frame, and the hop
/// between frames (50% overlap).
inline constexpr std::size_t kProfileFrame = 256;
inline constexpr std::size_t kProfileHop = 128;

/// Configuration of the LANC controller.
struct LancOptions {
  mute::adaptive::FxlmsOptions fxlms{};  // noncausal_taps = usable lookahead
  double sample_rate = kDefaultSampleRate;

  // Engine selection (see LancEngineKind). kFdBlock requires
  // fxlms.noncausal_taps >= fd_block: the block pipeline delay must fit
  // inside the acoustic lead.
  LancEngineKind engine = LancEngineKind::kTimeDomain;
  // Block size for kFdBlock (power of two). 0 picks the largest power of
  // two <= min(max(fxlms.noncausal_taps / 2, 1), 256): half the lead pays
  // the block pipeline, the other half stays with the filter as future
  // taps. The engine runs the round-robin gradient constraint.
  std::size_t fd_block = 0;

  // Predictive sound profiling (Section 3.2, opportunity 2).
  bool profiling = false;
  // Consecutive agreeing frames before a switch is scheduled. Speech has
  // syllable-scale (tens of ms) energy dips that must NOT trigger a swap;
  // only sentence-scale transitions should (8 frames ~ 64 ms at 16 kHz).
  std::size_t switch_hysteresis = 8;
};

/// Lookahead-Aware Noise Cancellation — the paper's Algorithm 1 plus the
/// predict-and-switch profiling layer.
///
/// The controller consumes the wirelessly forwarded reference stream,
/// which runs `fxlms.noncausal_taps` samples *ahead* of the acoustic
/// wavefront at the error microphone. Per audio tick:
///
///   Sample y = lanc.tick(x_advanced);   // anti-noise to play now
///   ... the simulator/hardware mixes y acoustically ...
///   lanc.observe_error(e);              // error-mic feedback, adapts
///
/// Profiling watches the *advanced* stream, so a profile transition is
/// classified before the corresponding wavefront reaches the ear; the
/// weight swap is scheduled to land exactly when it arrives.
class LancController {
 public:
  LancController(std::vector<double> secondary_path_estimate,
                 LancOptions options);

  /// Push the newest advanced reference sample, run profiling, and return
  /// the anti-noise sample for the current instant.
  MUTE_RT_SAFE Sample tick(Sample x_advanced);

  /// Feed back the error microphone sample for the tick just played.
  /// Ignored while holding (adaptation is frozen, mu -> 0 equivalent).
  MUTE_RT_SAFE void observe_error(Sample error);

  /// Graceful degradation on a flagged reference link: freeze adaptation
  /// and profiling, and ramp the anti-noise output toward zero so the ear
  /// is never louder than passive. tick() must keep being called (with the
  /// sanitized reference) so the ramp and the engine history advance.
  MUTE_RT_SAFE void hold();

  /// Link is healthy again: re-enable adaptation and ramp the output back.
  MUTE_RT_SAFE void resume();

  /// Warm-standby handoff: re-target the controller to a different relay
  /// without discarding the converged filter. In order:
  ///   1. the outgoing relay's pre-transition weights are stored under its
  ///      (relay, profile) cache key — UNLESS `outgoing_flagged` (weights
  ///      touched while the link was faulted must never poison the cache);
  ///   2. the live weights are remapped to the new relay's lookahead
  ///      window (`FxlmsEngine::retarget_noncausal`; see there for the
  ///      shift derivation) and the signal history is cleared;
  ///   3. if the incoming (relay, current profile) pair has a cache entry
  ///      of matching length, it is preloaded over the remap — the filter
  ///      last *converged against that relay* beats any remap.
  /// `advance_shift_samples` is the measured change in relay lead (old
  /// minus new, in whole samples). Profiler transition state is reset (its
  /// window watched the old relay's stream). Control-plane: allocates.
  /// After a retarget the caller must keep tick()ing so the fresh history
  /// refills; pair with hold()/resume() to mute the refill transient.
  MUTE_RT_UNSAFE void retarget(std::size_t new_relay,
                               std::size_t new_noncausal_taps,
                               std::ptrdiff_t advance_shift_samples,
                               bool outgoing_flagged);

  /// Install a shadow-pre-converged filter after a retarget(): weights AND
  /// the reference window they converged against (newest-first, both sized
  /// engine().total_taps()). The history priming is what removes the
  /// re-acquisition gap — weights over a zeroed delay line output nothing
  /// for total_taps ticks. The installed weights are also stored under the
  /// (relay(), current profile) cache key: they are the best converged
  /// state known for this relay. Call AFTER hold() — hold()'s snapshot
  /// rollback would otherwise clobber the install. Control-plane work.
  MUTE_RT_UNSAFE void install_converged(
      std::span<const double> weights,
      std::span<const double> x_newest_first);

  /// The relay index used for filter-cache keying (see retarget()).
  std::size_t relay() const { return relay_; }
  void set_relay(std::size_t relay) { relay_ = relay; }

  bool holding() const { return holding_; }

  /// Number of future taps N (== usable lookahead in samples). For the
  /// block engine this is the *controller's* lookahead — the engine's
  /// future-tap window plus the block pipeline delay it absorbs.
  std::size_t lookahead_samples() const {
    return fd_engine_ ? fd_engine_->noncausal_taps() + fd_engine_->block_size()
                      : engine_.noncausal_taps();
  }

  LancEngineKind engine_kind() const {
    return fd_engine_ ? LancEngineKind::kFdBlock
                      : LancEngineKind::kTimeDomain;
  }

  /// The block engine, or nullptr in time-domain mode.
  const mute::adaptive::FdFxlmsEngine* fd_engine() const {
    return fd_engine_.get();
  }
  mute::adaptive::FdFxlmsEngine* fd_engine() { return fd_engine_.get(); }

  /// Active-engine weight vector / tap count (layout [w_{-N'} ... w_{L-1}]
  /// of whichever engine runs the signal path). Control-plane.
  MUTE_RT_UNSAFE std::vector<double> active_weights() const;
  std::size_t active_total_taps() const;

  std::size_t current_profile() const { return current_profile_; }
  std::size_t profile_switch_count() const { return switch_count_; }
  std::size_t profile_count() const { return classifier_.profile_count(); }

  const mute::adaptive::FxlmsEngine& engine() const { return engine_; }
  mute::adaptive::FxlmsEngine& engine() { return engine_; }
  const LancOptions& options() const { return opts_; }

  void reset();

 private:
  MUTE_RT_ESCAPE(
      "predictive profiling hop: amortized control-plane work (signature\n"
      "extraction + classification every kProfileHop samples) the design\n"
      "knowingly runs on the audio thread; DESIGN.md \u00a711")
  void run_profiler(Sample x_advanced);
  MUTE_RT_ESCAPE(
      "profile-switch landing: cache store/load + weight swap, runs once\n"
      "per confirmed profile transition, not per sample; DESIGN.md \u00a711")
  void apply_pending_switch();

  // Block-engine signal path: lazily flush the filled input block at the
  // START of the tick (so the previous block's error window, which
  // completes in the observe_error just before, adapts against an
  // unmoved spectrum ring), then serve y from the output block.
  MUTE_RT_SAFE Sample fd_tick(Sample x_advanced);
  // Install weights on whichever engine is active.
  MUTE_RT_UNSAFE void install_weights(std::span<const double> w);
  // Reset the block pipeline (after retarget / reset: the buffered blocks
  // belong to the old stream).
  void reset_fd_pipeline();
  FilterCacheKey cache_key(std::size_t relay, std::size_t profile) const {
    return {relay, profile,
            fd_engine_ ? EngineKind::kFdBlock : EngineKind::kTimeDomain};
  }

  LancOptions opts_;
  mute::adaptive::FxlmsEngine engine_;
  // Block engine (kFdBlock only); when set, it owns the signal path and
  // engine_ above is idle reference plumbing.
  std::unique_ptr<mute::adaptive::FdFxlmsEngine> fd_engine_;
  // Block pipeline state: input accumulator, playing output block, and
  // the error window for the last played block (all preallocated).
  Signal fd_in_;
  Signal fd_out_;
  Signal fd_err_;
  std::size_t fd_in_fill_ = 0;
  std::size_t fd_out_pos_ = 0;
  std::size_t fd_err_fill_ = 0;
  bool fd_out_ready_ = false;   // first block has been produced
  bool fd_can_adapt_ = false;   // a process_block awaits its error window
  bool fd_err_dirty_ = false;   // hold() contaminated the current window
  // Which relay the engine is currently converged against; the first key
  // axis of every cache store/load.
  std::size_t relay_ = 0;

  // Profiling state.
  SignatureExtractor extractor_;
  ProfileClassifier classifier_;
  FilterCache cache_;
  // Pre-transition weight snapshots: a switch is confirmed only after the
  // hysteresis window, by which time the LMS has already drifted toward
  // the incoming profile. Caching the *current* weights would pollute the
  // outgoing profile's entry with that drift, so a short ring of
  // per-frame snapshots preserves the state from before the transition.
  std::deque<std::vector<double>> weight_snapshots_;
  std::size_t snapshot_depth_ = 4;
  // Rolling window of advanced samples, oldest-first, O(1) per tick; the
  // contiguous window feeds the signature extractor directly.
  dsp::FrameHistory<Sample> frame_buffer_;
  std::size_t frame_fill_ = 0;
  std::size_t hop_counter_ = 0;
  std::size_t current_profile_ = 0;
  // Sliding window of recent frame classifications: a switch is scheduled
  // when the whole window disagrees with the current profile, toward the
  // window's modal id. (Counting *consecutive identical* ids instead
  // deadlocks when the classifier flaps between two near-duplicate
  // clusters of the same physical source.)
  std::deque<std::size_t> recent_ids_;
  // Signed so -1 can mean "no swap scheduled"; std::ptrdiff_t (not long)
  // so it is the same width as the std::size_t tap counts it is assigned
  // from on every platform.
  std::ptrdiff_t switch_countdown_ = -1;  // samples until a swap lands
  std::size_t pending_profile_ = 0;
  std::size_t switch_count_ = 0;

  // Degradation state: output gain slews toward 0 (holding) or 1 (running)
  // by gain_step_ per tick.
  bool holding_ = false;
  double output_gain_ = 1.0;
  double gain_step_ = 1.0;
};

}  // namespace mute::core
