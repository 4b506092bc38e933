#include "dsp/fir_filter.hpp"

#include <algorithm>
#include <array>
#include <complex>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "dsp/fft.hpp"
#include "dsp/kernels.hpp"

namespace mute::dsp {

namespace {

constexpr std::size_t kHalf = FirFilter::kTailBlock;  // complex FFT length
constexpr std::size_t kFft = 2 * kHalf;               // real transform length
constexpr std::size_t kBins = kHalf + 1;              // Hermitian half

double* as_doubles(Complex* z) { return reinterpret_cast<double*>(z); }

std::size_t head_length(std::size_t taps) {
  ensure(taps >= 1, "FIR filter needs at least one coefficient");
  return std::min(taps, FirFilter::kHeadTaps);
}

// twiddles()[k] = exp(-2*pi*i * k / kFft): the split between a length-kFft
// real transform and the length-kHalf complex one that carries it. First
// built by a FirFilter constructor, never on the per-sample path.
const std::array<Complex, kHalf>& twiddles() {
  static const std::array<Complex, kHalf> table = [] {
    std::array<Complex, kHalf> w{};
    for (std::size_t k = 0; k < kHalf; ++k) {
      w[k] = std::polar(1.0, -kTwoPi * static_cast<double>(k) /
                                 static_cast<double>(kFft));
    }
    return w;
  }();
  return table;
}

// Manual (re, im) products: std::complex operator* goes through the
// NaN-recovering __muldc3 path (see fft.cpp).
Complex mul(Complex a, Complex b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

// Half spectrum out[0, kBins) of a real length-kFft record packed as
// z[t] = x[2t] + i x[2t+1] (the record itself, read as interleaved complex
// data); transforms z in place.
void real_forward(std::span<Complex> z, Complex* out) {
  const auto& w = twiddles();
  fft_inplace(z);
  out[0] = Complex(z[0].real() + z[0].imag(), 0.0);
  out[kHalf] = Complex(z[0].real() - z[0].imag(), 0.0);
  for (std::size_t k = 1; k < kHalf; ++k) {
    const Complex a = z[k];
    const Complex b = std::conj(z[kHalf - k]);
    const Complex even = 0.5 * (a + b);
    const Complex odd = mul(Complex(0.0, -0.5), a - b);  // (a - b) / 2i
    out[k] = even + mul(w[k], odd);
  }
}

// Samples [kHalf, kFft) of the real record whose length-kFft DFT, times
// 1/kFft, has the half spectrum y[0, kBins): the inverse split into z,
// then IFFT(Z) * kHalf = conj(FFT(conj(Z))), with the 1/kFft in y and the
// split's two halves cancelling (2 * kHalf = kFft).
void real_inverse_tail(const Complex* y, std::span<Complex> z, double* out) {
  const auto& w = twiddles();
  for (std::size_t k = 0; k < kHalf; ++k) {
    const Complex a = y[k];
    const Complex b = std::conj(y[kHalf - k]);
    const Complex odd = mul(a - b, std::conj(w[k]));
    z[k] = std::conj(a + b + Complex(-odd.imag(), odd.real()));  // E + i O
  }
  fft_inplace(z);
  for (std::size_t t = kHalf / 2; t < kHalf; ++t) {
    out[2 * t - kHalf] = z[t].real();
    out[2 * t + 1 - kHalf] = -z[t].imag();
  }
}

}  // namespace

FirFilter::FirFilter(std::vector<double> coefficients)
    : head_(coefficients.begin(),
            coefficients.begin() +
                static_cast<std::ptrdiff_t>(head_length(coefficients.size()))),
      history_(head_.size()) {
  const std::size_t taps = coefficients.size();
  if (taps <= kHeadTaps) return;
  partitions_ = (taps - kHeadTaps + kTailBlock - 1) / kTailBlock;
  spectra_.resize(partitions_ * kBins);
  fdl_.assign((partitions_ + 1) * kBins, Complex(0.0, 0.0));
  work_.resize(kHalf);
  acc_.resize(kBins);
  tail_out_.assign(kTailBlock, 0.0);
  // Partition p holds taps [kHeadTaps + p*B, kHeadTaps + (p+1)*B), zero-
  // padded to the transform length (and past the last coefficient).
  const double inv_n = 1.0 / static_cast<double>(kFft);
  double* record = as_doubles(work_.data());
  for (std::size_t p = 0; p < partitions_; ++p) {
    std::fill(work_.begin(), work_.end(), Complex(0.0, 0.0));
    const std::size_t first = kHeadTaps + p * kTailBlock;
    const std::size_t last = std::min(taps, first + kTailBlock);
    for (std::size_t k = first; k < last; ++k) {
      record[k - first] = coefficients[k] * inv_n;
    }
    real_forward(work_, spectra_.data() + p * kBins);
  }
}

Sample FirFilter::process(Sample x) {
  MUTE_CHECK_FINITE(x, "FIR input sample");
  MUTE_RT_SCOPE("FirFilter::process");
  // h[0] multiplies the newest sample, h[n-1] the oldest — exactly the
  // ring's newest-first window order.
  history_.push(static_cast<double>(x));
  double y = kernels::dot(head_.data(), history_.data(), head_.size());
  if (partitions_ == 0) return static_cast<Sample>(y);
  y += tail_out_[phase_];
  if (++phase_ == kTailBlock) {
    phase_ = 0;
    run_tail_block();
  }
  return static_cast<Sample>(y);
}

// Runs after the last sample of input block m-1 (blocks of kTailBlock
// samples) and prepares the tail term of block m. Output n = m*B + r needs
// x[n - k] for k >= kHeadTaps = 2B, i.e. blocks m-2 and older: with X_j the
// spectrum of blocks [j-1 | j] and H_p that of partition p, the tail of
// block m is the last B samples of IFFT(sum_p X_{m-2-p} H_p). X_{m-1},
// transformed now, waits one block in the delay line before its first use.
void FirFilter::run_tail_block() {
  // The head window is exactly the newest 2B inputs (blocks m-2, m-1),
  // newest-first; the transform wants them oldest-first.
  const double* hist = history_.data();
  std::reverse_copy(hist, hist + kFft, as_doubles(work_.data()));
  fdl_newest_ = (fdl_newest_ == 0) ? partitions_ : fdl_newest_ - 1;
  real_forward(work_, fdl_.data() + fdl_newest_ * kBins);

  // Slot fdl_newest_ + 1 + p (mod P + 1) holds X_{m-2-p}.
  std::fill(acc_.begin(), acc_.end(), Complex(0.0, 0.0));
  std::size_t slot = fdl_newest_;
  for (std::size_t p = 0; p < partitions_; ++p) {
    slot = (slot == partitions_) ? 0 : slot + 1;
    kernels::cmul_accumulate(as_doubles(acc_.data()),
                             as_doubles(fdl_.data() + slot * kBins),
                             as_doubles(spectra_.data() + p * kBins), kBins);
  }
  real_inverse_tail(acc_.data(), work_, tail_out_.data());
}

void FirFilter::process(std::span<const Sample> in, std::span<Sample> out) {
  ensure(in.size() == out.size(), "in/out block sizes must match");
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = process(in[i]);
}

Signal FirFilter::filter(std::span<const Sample> in) {
  Signal out(in.size());
  process(in, out);
  return out;
}

}  // namespace mute::dsp
