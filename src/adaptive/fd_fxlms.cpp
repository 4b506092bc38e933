#include "adaptive/fd_fxlms.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "dsp/fft.hpp"
#include "dsp/kernels.hpp"

namespace mute::adaptive {

namespace kernels = mute::dsp::kernels;

namespace {

// std::complex<double> guarantees the interleaved (re, im) double layout
// the kernel family operates on.
double* as_doubles(Complex* z) { return reinterpret_cast<double*>(z); }

std::size_t auto_block(std::size_t total) {
  // total/4 keeps the partition count at ~4: the per-sample FFT cost is
  // B-independent (6 transforms of 2B per B samples ~ log B), so fewer,
  // larger partitions win on the per-partition spectrum passes. Callers
  // with a lookahead budget (LancController) pick the block themselves.
  const std::size_t target = std::clamp<std::size_t>(total / 4, 64, 512);
  return next_pow2(target);
}

}  // namespace

FdFxlmsEngine::FdFxlmsEngine(std::vector<double> secondary_path_estimate,
                             FdFxlmsOptions options)
    : opts_(options), sec_path_filter_(std::move(secondary_path_estimate)) {
  ensure(opts_.mu > 0, "mu must be positive");
  ensure(opts_.leakage >= 0 && opts_.leakage < 1, "leakage in [0,1)");
  ensure(opts_.causal_taps + opts_.noncausal_taps > 0,
         "engine needs at least one tap");
  if (opts_.block == 0) {
    opts_.block = auto_block(opts_.causal_taps + opts_.noncausal_taps);
  }
  ensure(is_pow2(opts_.block), "block must be a power of two");
  rebuild_layout();
}

void FdFxlmsEngine::rebuild_layout() {
  total_ = opts_.causal_taps + opts_.noncausal_taps;
  block_ = opts_.block;
  fft_ = 2 * block_;
  parts_ = (total_ + block_ - 1) / block_;

  w_parts_.assign(parts_ * fft_, Complex(0.0, 0.0));
  x_spec_ring_.assign(parts_ * fft_, Complex(0.0, 0.0));
  u_spec_ring_.assign(parts_ * fft_, Complex(0.0, 0.0));
  x_prev_.assign(block_, 0.0);
  u_prev_.assign(block_, 0.0);
  u_block_.assign(block_, Sample{0});
  power_sum_.assign(fft_, 0.0);
  y_acc_.assign(fft_, Complex(0.0, 0.0));
  e_spec_.assign(fft_, Complex(0.0, 0.0));
  grad_.assign(fft_, Complex(0.0, 0.0));
  evicted_.assign(fft_, Complex(0.0, 0.0));

  head_ = 0;
  blocks_since_power_sync_ = 0;
  constraint_cursor_ = 0;
  adapt_armed_ = false;

  // Prime the secondary-path filter's block scratch at construction time
  // so the first real process_block is already allocation-free.
  sec_path_filter_.reset();
  sec_path_filter_.process(u_block_, u_block_);
  sec_path_filter_.reset();
  std::fill(u_block_.begin(), u_block_.end(), Sample{0});
}

std::size_t FdFxlmsEngine::valid_taps(std::size_t p) const {
  const std::size_t start = p * block_;
  return std::min(block_, total_ - start);
}

void FdFxlmsEngine::process_block(std::span<const Sample> x,
                                  std::span<Sample> y) {
  ensure(x.size() == block_ && y.size() == block_,
         "blocks must be exactly block_size() samples");

  // Filtered reference u = s_hat * x (block FIR over the kernel layer).
  sec_path_filter_.process(x, u_block_);

  // Admit the block into the newest ring slot: overlap-save assembly
  // [previous block | current block], then transform in place.
  head_ = (head_ + 1) % parts_;
  Complex* xs = x_spec_ring_.data() + head_ * fft_;
  Complex* us = u_spec_ring_.data() + head_ * fft_;
  std::copy(us, us + fft_, evicted_.begin());  // U leaving the power window
  for (std::size_t i = 0; i < block_; ++i) {
    xs[i] = Complex(x_prev_[i], 0.0);
    xs[block_ + i] = Complex(static_cast<double>(x[i]), 0.0);
    x_prev_[i] = static_cast<double>(x[i]);
    us[i] = Complex(u_prev_[i], 0.0);
    us[block_ + i] = Complex(static_cast<double>(u_block_[i]), 0.0);
    u_prev_[i] = static_cast<double>(u_block_[i]);
  }
  mute::dsp::fft_inplace(std::span<Complex>(xs, fft_));
  mute::dsp::fft_inplace(std::span<Complex>(us, fft_));

  // Per-bin power over the P-block window: O(F) sliding update, with an
  // exact recompute every P blocks so add/subtract rounding error cannot
  // accumulate (same re-sync policy as FxlmsEngine's ||u||^2).
  if (++blocks_since_power_sync_ >= parts_) {
    resync_bin_power();
  } else {
    kernels::magsq_update(power_sum_.data(), as_doubles(us),
                          as_doubles(evicted_.data()), fft_);
  }

  // Anti-noise: Y = sum_p X_{m-p} .* W_p, y = last half of IFFT(Y)
  // (overlap-save discard of the circular head).
  std::fill(y_acc_.begin(), y_acc_.end(), Complex(0.0, 0.0));
  for (std::size_t p = 0; p < parts_; ++p) {
    const std::size_t slot = (head_ + parts_ - p) % parts_;
    kernels::cmul_accumulate(as_doubles(y_acc_.data()),
                             as_doubles(x_spec_ring_.data() + slot * fft_),
                             as_doubles(w_parts_.data() + p * fft_), fft_);
  }
  mute::dsp::ifft_inplace(y_acc_);
  for (std::size_t i = 0; i < block_; ++i) {
    y[i] = static_cast<Sample>(y_acc_[block_ + i].real());
  }
  adapt_armed_ = true;
}

void FdFxlmsEngine::adapt_block(std::span<const Sample> e) {
  ensure(e.size() == block_, "error block must be block_size() samples");
  ensure(adapt_armed_,
         "adapt_block must follow the process_block whose output produced "
         "these errors");
  adapt_armed_ = false;

  // Error block spectrum, zero-padded head (overlap-save adjoint).
  for (std::size_t i = 0; i < block_; ++i) {
    e_spec_[i] = Complex(0.0, 0.0);
    e_spec_[block_ + i] = Complex(static_cast<double>(e[i]), 0.0);
  }
  mute::dsp::fft_inplace(e_spec_);

  // Per-partition normalized gradient: W_p -= mu * conj(U_{m-p}) .* E
  // / (power + eps) — the same descent direction and error convention as
  // FxlmsEngine::adapt (e = d + s*y, so the gradient is subtracted). The
  // newest ring slot is block m — the block whose output these errors
  // were observed on (adapt_armed_ contract).
  const double keep = 1.0 - opts_.mu * opts_.leakage;
  for (std::size_t p = 0; p < parts_; ++p) {
    const std::size_t slot = (head_ + parts_ - p) % parts_;
    kernels::cmul_conj_scaled(as_doubles(grad_.data()),
                              as_doubles(u_spec_ring_.data() + slot * fft_),
                              as_doubles(e_spec_.data()), power_sum_.data(),
                              kNlmsEpsilon, fft_);
    double* wp = as_doubles(w_parts_.data() + p * fft_);
    const double* g = as_doubles(grad_.data());
    if (keep == 1.0) {
      kernels::scaled_accumulate(wp, g, -opts_.mu, 2 * fft_);
    } else {
      for (std::size_t j = 0; j < 2 * fft_; ++j) {
        wp[j] = keep * wp[j] - opts_.mu * g[j];
      }
    }
  }

  switch (opts_.constraint) {
    case FdConstraint::kNone:
      break;
    case FdConstraint::kRoundRobin:
      constrain_partition(constraint_cursor_);
      constraint_cursor_ = (constraint_cursor_ + 1) % parts_;
      break;
    case FdConstraint::kFull:
      for (std::size_t p = 0; p < parts_; ++p) constrain_partition(p);
      break;
  }
}

void FdFxlmsEngine::constrain_partition(std::size_t p) {
  // Project W_p onto its causal tap block: IFFT, zero everything past the
  // partition's valid taps (and the numerical imaginary drift on the kept
  // ones, which also restores exact conjugate symmetry), FFT back.
  Complex* wp = w_parts_.data() + p * fft_;
  mute::dsp::ifft_inplace(std::span<Complex>(wp, fft_));
  const std::size_t keep_taps = valid_taps(p);
  for (std::size_t i = 0; i < keep_taps; ++i) {
    wp[i] = Complex(wp[i].real(), 0.0);
  }
  for (std::size_t i = keep_taps; i < fft_; ++i) wp[i] = Complex(0.0, 0.0);
  mute::dsp::fft_inplace(std::span<Complex>(wp, fft_));
}

void FdFxlmsEngine::resync_bin_power() {
  std::fill(power_sum_.begin(), power_sum_.end(), 0.0);
  for (std::size_t q = 0; q < parts_; ++q) {
    kernels::magsq_accumulate(power_sum_.data(),
                              as_doubles(u_spec_ring_.data() + q * fft_),
                              fft_);
  }
  blocks_since_power_sync_ = 0;
}

std::vector<double> FdFxlmsEngine::weights() const {
  std::vector<double> out(total_, 0.0);
  ComplexSignal tmp(fft_);
  for (std::size_t p = 0; p < parts_; ++p) {
    const Complex* wp = w_parts_.data() + p * fft_;
    std::copy(wp, wp + fft_, tmp.begin());
    mute::dsp::ifft_inplace(tmp);
    const std::size_t n = valid_taps(p);
    for (std::size_t i = 0; i < n; ++i) out[p * block_ + i] = tmp[i].real();
  }
  return out;
}

void FdFxlmsEngine::set_weights(std::span<const double> w) {
  ensure(w.size() == total_, "weight vector must have total_taps() entries");
  ComplexSignal tmp(fft_);
  for (std::size_t p = 0; p < parts_; ++p) {
    std::fill(tmp.begin(), tmp.end(), Complex(0.0, 0.0));
    const std::size_t n = valid_taps(p);
    for (std::size_t i = 0; i < n; ++i) {
      tmp[i] = Complex(w[p * block_ + i], 0.0);
    }
    mute::dsp::fft_inplace(tmp);
    std::copy(tmp.begin(), tmp.end(), w_parts_.begin() + p * fft_);
  }
}

void FdFxlmsEngine::retarget_noncausal(std::size_t new_noncausal,
                                       std::ptrdiff_t weight_shift) {
  const std::vector<double> old_w = weights();
  const auto old_total = static_cast<std::ptrdiff_t>(total_);
  opts_.noncausal_taps = new_noncausal;
  rebuild_layout();  // resizes partitions and clears signal history

  std::vector<double> new_w(total_, 0.0);
  for (std::size_t i = 0; i < total_; ++i) {
    const std::ptrdiff_t j = static_cast<std::ptrdiff_t>(i) + weight_shift;
    if (j >= 0 && j < old_total) new_w[i] = old_w[static_cast<std::size_t>(j)];
  }
  set_weights(new_w);
}

double FdFxlmsEngine::reference_power() const {
  double total = 0.0;
  for (double p : power_sum_) total += p;
  return total;
}

void FdFxlmsEngine::set_mu(double mu) {
  ensure(mu > 0, "mu must be positive");
  opts_.mu = mu;
}

void FdFxlmsEngine::reset_history() {
  std::fill(x_spec_ring_.begin(), x_spec_ring_.end(), Complex(0.0, 0.0));
  std::fill(u_spec_ring_.begin(), u_spec_ring_.end(), Complex(0.0, 0.0));
  std::fill(x_prev_.begin(), x_prev_.end(), 0.0);
  std::fill(u_prev_.begin(), u_prev_.end(), 0.0);
  std::fill(u_block_.begin(), u_block_.end(), Sample{0});
  std::fill(power_sum_.begin(), power_sum_.end(), 0.0);
  head_ = 0;
  blocks_since_power_sync_ = 0;
  adapt_armed_ = false;
  sec_path_filter_.reset();
}

void FdFxlmsEngine::reset() {
  reset_history();
  std::fill(w_parts_.begin(), w_parts_.end(), Complex(0.0, 0.0));
  constraint_cursor_ = 0;
}

}  // namespace mute::adaptive
