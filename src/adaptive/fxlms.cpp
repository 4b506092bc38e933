#include "adaptive/fxlms.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "dsp/kernels.hpp"

namespace mute::adaptive {

FxlmsEngine::FxlmsEngine(std::vector<double> secondary_path_estimate,
                         FxlmsOptions options)
    : opts_(options),
      x_hist_(std::max(options.noncausal_taps + options.causal_taps,
                       secondary_path_estimate.size())),
      u_hist_(options.noncausal_taps + options.causal_taps),
      sec_path_(std::move(secondary_path_estimate)),
      w_(u_hist_.size(), 0.0),
      good_w_(w_.size(), 0.0) {
  ensure(opts_.causal_taps >= 1, "need at least one causal tap");
  ensure(opts_.mu > 0, "mu must be positive");
  ensure(opts_.leakage >= 0 && opts_.leakage < 1, "leakage in [0,1)");
  ensure(opts_.weight_norm_limit >= 0, "weight norm limit must be >= 0");
  ensure(opts_.min_excitation >= 0, "min excitation must be >= 0");
  ensure(!sec_path_.empty(), "secondary path estimate must be non-empty");
}

double FxlmsEngine::filtered_reference() const {
  // u(t+N) = (h_se_est * x)(t+N): the estimate's taps over the newest
  // reference samples, rounded to Sample like every filter output.
  return static_cast<double>(static_cast<Sample>(dsp::kernels::dot(
      sec_path_.data(), x_hist_.data(), sec_path_.size())));
}

void FxlmsEngine::push_filtered(double u_new) {
  const double u_old = u_hist_.oldest();
  u_hist_.push(u_new);
  u_power_.push(u_new, u_old, u_hist_.data(), w_.size());
}

void FxlmsEngine::push_reference(Sample x_advanced) {
  MUTE_CHECK_FINITE(x_advanced, "FxLMS reference sample");
  MUTE_RT_SCOPE("FxlmsEngine::push_reference");
  settle();
  x_hist_.push(static_cast<double>(x_advanced));
  push_filtered(filtered_reference());
}

Sample FxlmsEngine::compute_antinoise() const {
  settle();
  // Window index i holds x(t - (i - N)); weight w_[i] is w_{k = i - N}.
  return static_cast<Sample>(
      dsp::kernels::dot(w_.data(), x_hist_.data(), w_.size()));
}

void FxlmsEngine::adapt(Sample error) {
  MUTE_CHECK_FINITE(error, "FxLMS error-microphone sample");
  MUTE_RT_SCOPE("FxlmsEngine::adapt");
  settle();
  if (opts_.min_excitation > 0.0 &&
      u_power_.value() <
          opts_.min_excitation * static_cast<double>(w_.size())) {
    return;  // reference too weak to identify anything; updating is noise
  }
  const double denom = std::max(u_power_.value(), 0.0) + kNlmsEpsilon;
  step_gain_ = -(opts_.mu * static_cast<double>(error) / denom);
  step_keep_ = 1.0 - opts_.mu * opts_.leakage;
  step_pending_ = true;
}

void FxlmsEngine::settle() const {
  if (!step_pending_) return;
  step_pending_ = false;
  guard_update(dsp::kernels::axpy_leaky_norm(
      w_.data(), u_hist_.data(), step_keep_, step_gain_, w_.size()));
}

bool FxlmsEngine::guard_update(double norm2) const {
  w_norm2_ = norm2;
  if (opts_.weight_norm_limit <= 0.0) return false;

  const double limit2 = opts_.weight_norm_limit * opts_.weight_norm_limit;
  if (norm2 > limit2) [[unlikely]] {
    // Divergence: restore the last-known-good filter rather than letting
    // a runaway update poison every future output. The signal histories
    // are kept — if the reference is still garbage the guard simply fires
    // again, which keeps the norm bounded either way.
    std::copy(good_w_.begin(), good_w_.end(), w_.begin());
    w_norm2_ = good_norm2_;
    since_snapshot_ = 0;
    ++rollback_count_;
    return true;
  }
  if (++since_snapshot_ >= kSnapshotInterval) {
    since_snapshot_ = 0;
    // Snapshot only a comfortably-converged filter: weights hovering near
    // the limit are themselves suspect rollback targets. The stability
    // ladder (norm grew at most ~50% over the last known-good snapshot)
    // matters when a garbage reference correlates with the error and
    // inflates the weights exponentially — that growth must never refresh
    // the snapshot, or restore_snapshot() would restore the corruption.
    // The additive bootstrap exists ONLY to admit the very first snapshot
    // of a cold-started filter; once a target exists the ladder is purely
    // multiplicative, or the bootstrap would swamp a small converged norm
    // and whitelist multi-x corruption.
    const double bootstrap = good_norm2_ > 0.0 ? 0.0 : 0.25;
    if (norm2 <= 0.64 * limit2 && norm2 <= 2.25 * good_norm2_ + bootstrap) {
      std::copy(w_.begin(), w_.end(), good_w_.begin());
      good_norm2_ = norm2;
    }
  }
  return false;
}

Sample FxlmsEngine::step_output(Sample x_advanced) {
  MUTE_CHECK_FINITE(x_advanced, "FxLMS reference sample");
  MUTE_RT_SCOPE("FxlmsEngine::step_output");
  x_hist_.push(static_cast<double>(x_advanced));
  if (!step_pending_) {
    push_filtered(filtered_reference());
    return compute_antinoise();
  }
  // One pass: the pending step over the u window it was computed from
  // (u is pushed only afterwards), then the guard, the output and the next
  // filtered reference from the new weights and reference window.
  step_pending_ = false;
  const auto pass = dsp::kernels::axpy_leaky_norm_dots(
      w_.data(), u_hist_.data(), step_keep_, step_gain_, w_.size(),
      x_hist_.data(), sec_path_.data(), sec_path_.size());
  const double y = guard_update(pass.norm2)
                       ? dsp::kernels::dot(w_.data(), x_hist_.data(),
                                           w_.size())  // rolled back
                       : pass.wx;
  push_filtered(static_cast<double>(static_cast<Sample>(pass.hx)));
  return static_cast<Sample>(y);
}

void FxlmsEngine::set_weights(std::span<const double> w) {
  ensure(w.size() == w_.size(), "weight size mismatch");
  settle();
  std::copy(w.begin(), w.end(), w_.begin());
  const double norm2 = dsp::kernels::energy(w_.data(), w_.size());
  w_norm2_ = norm2;
  // Externally-installed weights (warm start, profile cache) are trusted:
  // adopt them as the rollback target when they are inside the guard band.
  const double limit2 =
      opts_.weight_norm_limit * opts_.weight_norm_limit;
  if (opts_.weight_norm_limit <= 0.0 || norm2 <= 0.64 * limit2) {
    std::copy(w_.begin(), w_.end(), good_w_.begin());
    good_norm2_ = norm2;
    since_snapshot_ = 0;
  }
}

void FxlmsEngine::prime_history(std::span<const double> x_newest_first) {
  reset_history();  // the filtered reference must start from zero history
  // push_reference wants oldest-first arrival order; the span is
  // newest-first. Replaying through the real push keeps every derived
  // quantity (u history, u_power_, sync counter) consistent by
  // construction instead of duplicating the bookkeeping here.
  for (std::size_t i = x_newest_first.size(); i-- > 0;) {
    push_reference(static_cast<Sample>(x_newest_first[i]));
  }
}

double FxlmsEngine::weight_norm() const {
  settle();
  return std::sqrt(w_norm2_);
}

void FxlmsEngine::restore_snapshot() {
  settle();
  if (opts_.weight_norm_limit <= 0.0) return;  // guard off: no snapshots
  std::copy(good_w_.begin(), good_w_.end(), w_.begin());
  w_norm2_ = good_norm2_;
  since_snapshot_ = 0;
}

void FxlmsEngine::retarget_noncausal(std::size_t new_noncausal,
                                     std::ptrdiff_t weight_shift) {
  settle();
  const std::size_t new_total = new_noncausal + opts_.causal_taps;
  const auto old_total = static_cast<std::ptrdiff_t>(w_.size());
  // Remap in place, walking away from the side the reads come from so
  // every source is read before it is overwritten. Reusing the capacity
  // keeps a retarget from allocating unless the window outgrows every
  // earlier one (in a fleet tenant's monotonic arena a fresh vector per
  // retarget is never reclaimed).
  w_.resize(std::max(w_.size(), new_total), 0.0);
  const auto remap = [&](std::size_t i) {
    const std::ptrdiff_t src = static_cast<std::ptrdiff_t>(i) + weight_shift;
    w_[i] = (src >= 0 && src < old_total) ? w_[static_cast<std::size_t>(src)]
                                          : 0.0;
  };
  if (weight_shift >= 0) {
    for (std::size_t i = 0; i < new_total; ++i) remap(i);
  } else {
    for (std::size_t i = new_total; i-- > 0;) remap(i);
  }
  w_.resize(new_total);
  double norm2 = 0.0;
  for (const double w : w_) norm2 += w * w;
  opts_.noncausal_taps = new_noncausal;
  x_hist_.assign(std::max(new_total, sec_path_.size()), 0.0);
  u_hist_.assign(new_total, 0.0);
  u_power_.reset();
  w_norm2_ = norm2;
  // The remap is a subset of the live weights, so its norm is bounded by
  // theirs — adopt it unconditionally as the rollback target (the guard
  // band check in set_weights() exists for untrusted external vectors).
  good_w_ = w_;
  good_norm2_ = norm2;
  since_snapshot_ = 0;
}

void FxlmsEngine::set_mu(double mu) {
  ensure(mu > 0, "mu must be positive");
  opts_.mu = mu;
}

void FxlmsEngine::reset_history() {
  settle();
  x_hist_.fill(0.0);
  u_hist_.fill(0.0);
  u_power_.reset();
}

void FxlmsEngine::reset() {
  reset_history();
  std::fill(w_.begin(), w_.end(), 0.0);
  std::fill(good_w_.begin(), good_w_.end(), 0.0);
  w_norm2_ = 0.0;
  good_norm2_ = 0.0;
  since_snapshot_ = 0;
  rollback_count_ = 0;
}

}  // namespace mute::adaptive
