#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "adaptive/fxlms.hpp"
#include "common/rt_annotations.hpp"
#include "common/types.hpp"
#include "core/filter_cache.hpp"
#include "core/profile.hpp"
#include "dsp/ring_history.hpp"

namespace mute::core {

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

  /// Number of future taps N (== usable lookahead in samples).
  std::size_t lookahead_samples() const { return engine_.noncausal_taps(); }

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

  LancOptions opts_;
  mute::adaptive::FxlmsEngine engine_;
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
