#include "adaptive/fdaf.hpp"

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
double* as_doubles(ComplexSignal& z) {
  return reinterpret_cast<double*>(z.data());
}
}  // namespace

BlockFdaf::BlockFdaf(Options options)
    : opts_(options), block_(next_pow2(std::max<std::size_t>(options.taps, 2))),
      fft_(2 * block_), w_(fft_, Complex(0.0, 0.0)),
      x_prev_(block_, 0.0), bin_power_(fft_, 0.0),
      xf_(fft_), yf_(fft_), ef_(fft_), grad_(fft_) {
  ensure(options.mu > 0, "mu must be positive");
  ensure(options.power_alpha > 0 && options.power_alpha < 1,
         "power_alpha in (0,1)");
}

void BlockFdaf::step_block(std::span<const Sample> x,
                           std::span<const Sample> desired,
                           std::span<Sample> error_out) {
  ensure(x.size() == block_ && desired.size() == block_ &&
             error_out.size() == block_,
         "blocks must be exactly block_size() samples");

  // Assemble [previous block | current block] and transform. All scratch
  // spectra are preallocated members: this path is allocation-free.
  for (std::size_t i = 0; i < block_; ++i) {
    xf_[i] = Complex(x_prev_[i], 0.0);
    xf_[block_ + i] = Complex(static_cast<double>(x[i]), 0.0);
    x_prev_[i] = static_cast<double>(x[i]);
  }
  mute::dsp::fft_inplace(xf_);

  // Per-bin power estimate (the FDAF equivalent of NLMS normalization;
  // this is what equalizes convergence across spectral notches). The EMA
  // is seeded from the first real block: starting it at zero left the
  // first updates normalized by epsilon alone, so a loud first block
  // produced an exploding initial weight step (cold-start divergence).
  if (!power_primed_) {
    kernels::magsq_accumulate(bin_power_.data(), as_doubles(xf_), fft_);
    power_primed_ = true;
  } else {
    for (std::size_t k = 0; k < fft_; ++k) {
      bin_power_[k] = opts_.power_alpha * bin_power_[k] +
                      (1.0 - opts_.power_alpha) * std::norm(xf_[k]);
    }
  }

  // Filter: y = last block of IFFT(X .* W) (overlap-save).
  std::fill(yf_.begin(), yf_.end(), Complex(0.0, 0.0));
  kernels::cmul_accumulate(as_doubles(yf_), as_doubles(xf_), as_doubles(w_),
                           fft_);
  mute::dsp::ifft_inplace(yf_);

  // Error (time domain), zero-padded head for the gradient transform.
  for (std::size_t i = 0; i < block_; ++i) {
    const double e = static_cast<double>(desired[i]) -
                     yf_[block_ + i].real();
    error_out[i] = static_cast<Sample>(e);
    ef_[i] = Complex(0.0, 0.0);
    ef_[block_ + i] = Complex(e, 0.0);
  }
  mute::dsp::fft_inplace(ef_);

  // Gradient: conj(X) .* E, normalized per bin.
  kernels::cmul_conj_scaled(as_doubles(grad_), as_doubles(xf_),
                            as_doubles(ef_), bin_power_.data(), kEpsilon,
                            fft_);
  // Constrain the gradient to a causal filter of length block_: go to
  // time domain, zero the second half, come back.
  mute::dsp::ifft_inplace(grad_);
  for (std::size_t i = block_; i < fft_; ++i) grad_[i] = Complex(0.0, 0.0);
  mute::dsp::fft_inplace(grad_);
  for (std::size_t k = 0; k < fft_; ++k) {
    w_[k] += opts_.mu * grad_[k];
  }
}

Signal BlockFdaf::identify(std::span<const Sample> x,
                           std::span<const Sample> desired) {
  ensure(x.size() == desired.size(), "record lengths must match");
  const std::size_t blocks = x.size() / block_;
  Signal err(blocks * block_);
  for (std::size_t b = 0; b < blocks; ++b) {
    step_block(x.subspan(b * block_, block_),
               desired.subspan(b * block_, block_),
               std::span<Sample>(err.data() + b * block_, block_));
  }
  return err;
}

std::vector<double> BlockFdaf::weights() const {
  ComplexSignal w = w_;
  mute::dsp::ifft_inplace(w);
  std::vector<double> out(block_);
  for (std::size_t i = 0; i < block_; ++i) out[i] = w[i].real();
  return out;
}

std::vector<double> BlockFdaf::weights_full() const {
  ComplexSignal w = w_;
  mute::dsp::ifft_inplace(w);
  std::vector<double> out(fft_);
  for (std::size_t i = 0; i < fft_; ++i) out[i] = w[i].real();
  return out;
}

}  // namespace mute::adaptive
