#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "adaptive/nlms.hpp"
#include "common/rt_annotations.hpp"
#include "common/types.hpp"
#include "dsp/fir_filter.hpp"

namespace mute::adaptive {

/// Gradient-constraint schedule for the partitioned block engine.
///
/// The overlap-save weight update is only exactly equivalent to the
/// time-domain LMS when each partition's weights are projected back onto
/// a causal block (IFFT, zero the tail half, FFT) — otherwise circular
/// wraparound energy accumulates. Constraining every partition costs 2P
/// extra FFTs per block, which at long filters erases most of the block
/// speedup, so the default constrains one partition per adapt, cycling:
/// wraparound energy in any partition is projected out at most P blocks
/// after it appears, which keeps the unconstrained drift at noise level
/// (tested) at ~2 extra FFTs per block.
enum class FdConstraint {
  kNone,        // never project (fastest; tail drift is unchecked)
  kRoundRobin,  // one partition per adapt, cycling (default)
  kFull,        // every partition, every adapt (exact MDF)
};

/// Configuration of the partitioned-block frequency-domain FxLMS engine.
///
/// `causal_taps` / `noncausal_taps` mirror FxlmsOptions: the weight vector
/// interops with FxlmsEngine's layout [w_{-N} ... w_{L-1}] so converged
/// filters can cross between the engines (filter cache, shadow filters).
/// The engine itself is a causal adaptive filter over the *advanced*
/// reference stream xa(t) = x(t + N) the controller feeds it; the split
/// is bookkeeping for layout and retargeting, not a different algorithm.
struct FdFxlmsOptions {
  std::size_t causal_taps = 256;
  std::size_t noncausal_taps = 0;
  /// Block size B (power of two). 0 picks next_pow2(total/8) clamped to
  /// [64, 512]. The controller must keep B at or under the acoustic lead
  /// it has left after `noncausal_taps` — see LancOptions::fd_block.
  std::size_t block = 0;
  double mu = 0.5;          // per-bin NLMS-normalized step
  double leakage = 0.0;     // leakage per adapt (keep = 1 - mu*leakage,
                            // same semantics as FxlmsOptions::leakage)
  FdConstraint constraint = FdConstraint::kRoundRobin;
};

/// Partitioned-block frequency-domain FxLMS (PBFDAF / multidelay filter):
/// the O(log N)-per-sample engine for long LANC filters (DESIGN.md §13).
///
/// Overlap-save convolution of the filtered-x reference against P = ⌈T/B⌉
/// weight partitions with per-bin normalized adaptation:
///
///   process_block(x, y):  admit B reference samples, produce the next B
///                         anti-noise samples y = Σ_p IFFT(X_{m-p} ∘ W_p),
///                         and advance the X/U spectrum rings (U = ŝ * x
///                         through the secondary-path estimate, as in
///                         time-domain FxLMS).
///   adapt_block(e):       per-bin gradient W_p -= mu · conj(U_{m-p}) ∘ E
///                         / (Σ_q |U_q|² + eps), then the scheduled
///                         gradient constraint. Must be called with the
///                         errors observed for the *most recent*
///                         process_block output, before the next
///                         process_block — the controller's lookahead
///                         buffering guarantees this ordering.
///
/// Latency contract: y for input block m is produced when block m
/// completes and is played during the following B ticks, so the engine
/// adds exactly B samples of pipeline delay. LANC absorbs it in the
/// acoustic lead: a controller with N samples of lookahead runs this
/// engine with noncausal_taps = N - B and loses nothing (paper Eq. 3/4 —
/// block latency is free up to the lead).
///
/// Both block calls are MUTE_RT_SAFE: all FFT scratch, spectrum rings and
/// the secondary-path block filter are preallocated at construction.
class FdFxlmsEngine {
 public:
  FdFxlmsEngine(std::vector<double> secondary_path_estimate,
                FdFxlmsOptions options);

  std::size_t block_size() const { return block_; }
  std::size_t partition_count() const { return parts_; }
  std::size_t total_taps() const { return total_; }
  std::size_t noncausal_taps() const { return opts_.noncausal_taps; }
  const FdFxlmsOptions& options() const { return opts_; }

  /// Produce the next B anti-noise samples from B new reference samples.
  MUTE_RT_SAFE void process_block(std::span<const Sample> x,
                                  std::span<Sample> y);

  /// Adapt from the B errors observed for the last process_block output.
  MUTE_RT_SAFE void adapt_block(std::span<const Sample> e);

  /// Time-domain weights in the FxlmsEngine layout
  /// [w_{-N} ... w_{-1}, w_0 ... w_{L-1}], length total_taps().
  /// Control-plane (allocates).
  MUTE_RT_UNSAFE std::vector<double> weights() const;

  /// Install time-domain weights (same layout/length as weights()).
  MUTE_RT_UNSAFE void set_weights(std::span<const double> w);

  /// Re-size the non-causal window keeping the converged filter — the
  /// same source-time remap as FxlmsEngine::retarget_noncausal:
  /// w_new[i] = w_old[i + weight_shift]. Signal history is cleared (it
  /// belongs to the old stream). Control-plane.
  MUTE_RT_UNSAFE void retarget_noncausal(std::size_t new_noncausal,
                                         std::ptrdiff_t weight_shift);

  /// Total per-bin reference power Σ_k Σ_q |U_q[k]|² (diagnostics).
  double reference_power() const;

  void set_mu(double mu);

  /// Clear signal history (spectrum rings, overlap tails, bin powers) but
  /// keep weights — used at profile switches.
  void reset_history();

  /// Clear everything (weights and history).
  void reset();

 private:
  // Valid time-domain taps held by partition p (the last partition may be
  // partial when total_ is not a multiple of block_).
  std::size_t valid_taps(std::size_t p) const;
  // Project partition p's weights onto its causal tap block.
  MUTE_RT_SAFE void constrain_partition(std::size_t p);
  MUTE_RT_SAFE void resync_bin_power();
  void rebuild_layout();  // (re)size all state for opts_ (control-plane)

  FdFxlmsOptions opts_;
  std::size_t total_ = 0;  // causal + noncausal taps
  std::size_t block_ = 0;  // B
  std::size_t fft_ = 0;    // F = 2B
  std::size_t parts_ = 0;  // P = ceil(total_ / B)

  mute::dsp::FirFilter sec_path_filter_;

  // Flat [P x F] spectrum arrays; partition/ring slot p lives at p * fft_.
  ComplexSignal w_parts_;      // weight partitions W_p
  ComplexSignal x_spec_ring_;  // reference block spectra (newest at head_)
  ComplexSignal u_spec_ring_;  // filtered-reference block spectra
  std::size_t head_ = 0;       // ring slot of the newest block

  std::vector<double> x_prev_;   // previous raw block (overlap-save)
  std::vector<double> u_prev_;   // previous filtered block
  Signal u_block_;               // secondary-path block output scratch
  std::vector<double> power_sum_;  // Σ_q |U_q[k]|² per bin
  ComplexSignal y_acc_;          // output spectrum accumulator
  ComplexSignal e_spec_;         // error block spectrum
  ComplexSignal grad_;           // per-partition gradient scratch
  ComplexSignal evicted_;        // U spectrum leaving the ring (power upd.)

  std::size_t blocks_since_power_sync_ = 0;
  std::size_t constraint_cursor_ = 0;  // round-robin partition index
  bool adapt_armed_ = false;  // process_block ran, adapt not yet consumed
};

}  // namespace mute::adaptive
