#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "adaptive/nlms.hpp"
#include "common/rt_annotations.hpp"
#include "common/types.hpp"
#include "dsp/ring_history.hpp"

namespace mute::adaptive {

/// Updates between the divergence guard's known-good snapshots; a snapshot
/// is only taken while the norm is comfortably inside the limit (<= 80%).
inline constexpr std::size_t kSnapshotInterval = 256;

/// Configuration of the filtered-x LMS engine.
///
/// `noncausal_taps` (the paper's N in Equation 8) is the number of filter
/// coefficients that multiply *future* reference samples. A conventional
/// headphone has N == 0 (no lookahead); MUTE's LANC runs with N equal to
/// the usable lookahead in samples. `causal_taps` is L in the paper.
struct FxlmsOptions {
  std::size_t causal_taps = 256;
  std::size_t noncausal_taps = 0;
  double mu = 0.5;          // NLMS-normalized step size
  double leakage = 0.0;     // coefficient leakage per update
  // Divergence guard: when the weight L2 norm exceeds this after an
  // update, the weights roll back to the last-known-good snapshot (taken
  // every kSnapshotInterval updates) instead of running away (a bad
  // secondary-path estimate or a garbage reference can turn the gradient
  // into ascent). 0 disables the guard.
  double weight_norm_limit = 0.0;
  // Excitation gate: skip the update when the mean per-tap filtered
  // reference power falls below this. NLMS divides by that power, so a
  // near-dead reference (squelched link, jammer-captured demodulator)
  // turns tiny updates into huge ones — a weight random-walk that can
  // leave the filter worse than passive. 0 disables the gate (plain
  // leakage behaviour is preserved for callers that rely on it).
  double min_excitation = 0.0;
};

/// Filtered-x LMS with optional non-causal taps — the algorithmic heart of
/// both the conventional-ANC baseline and MUTE's LANC (Algorithm 1).
///
/// Per audio tick the caller must:
///   1. push_reference(x(t+N))   — newest reference sample (N ahead of the
///                                 wavefront at the error mic; N == 0 for a
///                                 conventional headphone),
///   2. y = compute_antinoise()  — the sample to play now, Eq. 8:
///                                 y(t) = sum_{k=-N}^{L-1} w_k x(t-k),
///   3. adapt(e(t))              — after the acoustic mix is observed, the
///                                 Eq. 7 update w_k -= mu * e(t) * u(t-k)
///                                 where u = h_se_estimate * x.
/// step_output() is steps 1 and 2 in one call.
///
/// Deferred step. adapt() only records its step (the gain and the leakage
/// keep factor, after the excitation gate); the weights move when the next
/// step_output() runs. That call makes one pass over the taps
/// (kernels::axpy_leaky_norm_dots): it applies the step, and from the new
/// weights and the new reference window it computes ||w||^2 for the
/// divergence guard, the anti-noise y and the filtered reference u(t+N+1).
/// The results are bit-identical to applying the step in adapt() and then
/// running the three separate kernels. The filtered reference is a direct
/// dot of the secondary-path estimate over the reference window, so that
/// window holds max(total_taps(), estimate length) samples.
///
/// Settle-on-read. Every other entry point that reads or replaces the
/// weights or the u history applies a pending step first, through the
/// unfused axpy_leaky_norm: push_reference, compute_antinoise, adapt,
/// weights, weight_norm, rollback_count, set_weights, prime_history,
/// restore_snapshot, retarget_noncausal, reset_history and reset. So no
/// caller can observe the deferral, whatever order it calls in. The const
/// readers settle too (the weight state is `mutable`), so an engine must
/// not be read from two threads at once.
class FxlmsEngine {
 public:
  FxlmsEngine(std::vector<double> secondary_path_estimate,
              FxlmsOptions options);

  /// Feed the newest (possibly future) reference sample x(t+N).
  MUTE_RT_SAFE void push_reference(Sample x_advanced);

  /// Anti-noise output for the current instant t.
  MUTE_RT_SAFE Sample compute_antinoise() const;

  /// NLMS-normalized gradient step from the observed error e(t).
  MUTE_RT_SAFE void adapt(Sample error);

  /// push + compute in one call (adapt still separate — the error for time
  /// t only exists after the simulator mixes the anti-noise acoustically).
  /// Applies the step a preceding adapt() recorded in the same pass.
  MUTE_RT_SAFE Sample step_output(Sample x_advanced);

  std::size_t total_taps() const { return w_.size(); }
  std::size_t noncausal_taps() const { return opts_.noncausal_taps; }
  const FxlmsOptions& options() const { return opts_; }

  /// Weight vector ordered [w_{-N} ... w_{-1}, w_0, ..., w_{L-1}].
  const std::vector<double>& weights() const {
    settle();
    return w_;
  }
  MUTE_RT_UNSAFE void set_weights(std::span<const double> w);

  /// The reference window the weights currently see, newest-first (window
  /// index i holds x(t - (i - N))), length total_taps(). Lets a shadow
  /// filter hand its signal context to the engine it pre-converged for.
  std::span<const double> reference_window() const {
    return {x_hist_.data(), w_.size()};
  }

  /// Replay a newest-first reference window through push_reference() so
  /// the x/u histories and the NLMS power term all match what they would
  /// be had this engine streamed the samples itself. Pair with
  /// set_weights() to install a shadow filter's converged state: weights
  /// without their history would multiply stale zeros for total_taps()
  /// ticks — exactly the re-acquisition gap the shadow exists to remove.
  /// Control-plane only.
  MUTE_RT_UNSAFE void prime_history(std::span<const double> x_newest_first);

  /// Current weight L2 norm (maintained by every weight update).
  double weight_norm() const;
  /// Filtered-reference window power ||u||^2 — the NLMS denominator.
  /// Maintained incrementally per push and re-synced exactly (kernel
  /// recompute) every total_taps() pushes so add/subtract rounding error
  /// cannot accumulate over long runs.
  double reference_power() const { return u_power_.value(); }
  /// Times the divergence guard rolled the weights back.
  std::size_t rollback_count() const {
    settle();
    return rollback_count_;
  }

  /// Restore the last-known-good snapshot (no-op when the guard is off).
  /// Called on entry to a link-fault hold: any updates made from the
  /// not-yet-detected garbage reference are discarded, so the filter the
  /// device resumes with is at most kSnapshotInterval updates stale.
  void restore_snapshot();

  /// Re-size the non-causal window to `new_noncausal` taps while keeping
  /// the converged filter, for a relay handoff (the standby relay offers a
  /// different usable lookahead). The surviving weights are shifted so
  /// they stay aligned in *source time*: w_new[i] = w_old[i + weight_shift]
  /// (out-of-range taps are zero). For a handoff from a relay leading the
  /// ear by a_old samples (N_old future taps) to one leading by a_new
  /// (N_new future taps), the aligning shift is
  ///
  ///   weight_shift = (N_old - N_new) + (a_old - a_new)
  ///
  /// — the N term re-anchors the array index (index i means w_{i-N}) and
  /// the a term re-times the reference stream itself. Exact when the two
  /// relays differ by a pure delay; a warm start the LMS refines when
  /// their room paths also differ. The remapped weights become the
  /// rollback snapshot (a shift only drops taps, so the norm cannot grow)
  /// and the signal history is cleared — it belongs to the old relay's
  /// stream. Control-plane: allocates; never call from per-sample code.
  MUTE_RT_UNSAFE void retarget_noncausal(std::size_t new_noncausal,
                                         std::ptrdiff_t weight_shift);

  /// Adjust the step size at run time (step-size scheduling: converge
  /// fast, then settle to a low-misadjustment step).
  void set_mu(double mu);

  /// Clear signal history but keep weights (prime_history and reset).
  void reset_history();

  /// Clear everything (weights and history): ShadowFilter::assign starts
  /// each candidate relay's filter from zero.
  void reset();

 private:
  // Apply a pending adapt() step through the unfused kernel.
  void settle() const;
  // Divergence guard after a weight update whose new ||w||^2 is `norm2`:
  // rolls back or snapshots. Returns true when it rolled back.
  bool guard_update(double norm2) const;
  // Admit the filtered reference u(t+N) and track ||u||^2.
  void push_filtered(double u_new);
  // Filtered reference of the window x_hist_ holds now.
  double filtered_reference() const;

  FxlmsOptions opts_;
  // Doubled-buffer rings, newest-first windows aligned with w_:
  // x_hist_.data()[i] = x(t - (i - N)), u_hist_ is the filtered reference.
  // x_hist_ also covers the secondary-path estimate (see the class
  // comment), so it may be longer than w_.
  mute::dsp::RingHistory<double> x_hist_;
  mute::dsp::RingHistory<double> u_hist_;
  std::vector<double> sec_path_;
  WindowPower u_power_;

  // Weights and divergence-guard state (preallocated; the per-sample path
  // stays allocation-free). `mutable` because const readers settle a
  // pending step.
  mutable std::vector<double> w_;  // [noncausal | causal], newest-first
  mutable std::vector<double> good_w_;  // last-known-good snapshot
  mutable double w_norm2_ = 0.0;        // ||w||^2 after the latest update
  mutable double good_norm2_ = 0.0;
  mutable std::size_t since_snapshot_ = 0;
  mutable std::size_t rollback_count_ = 0;
  // The step adapt() recorded: w <- step_keep_ * w + step_gain_ * u.
  mutable bool step_pending_ = false;
  double step_keep_ = 1.0;
  double step_gain_ = 0.0;
};

}  // namespace mute::adaptive
