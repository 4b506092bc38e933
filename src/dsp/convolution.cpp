#include "dsp/convolution.hpp"

#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "dsp/fft.hpp"

namespace mute::dsp {

Signal convolve(std::span<const Sample> a, std::span<const double> b) {
  ensure(!a.empty() && !b.empty(), "convolution inputs must be non-empty");
  Signal out(a.size() + b.size() - 1, 0.0f);
  std::vector<double> acc(out.size(), 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double av = static_cast<double>(a[i]);
    for (std::size_t j = 0; j < b.size(); ++j) {
      acc[i + j] += av * b[j];
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<Sample>(acc[i]);
  }
  return out;
}

Signal fft_convolve(std::span<const Sample> a, std::span<const double> b) {
  ensure(!a.empty() && !b.empty(), "convolution inputs must be non-empty");
  const std::size_t out_len = a.size() + b.size() - 1;
  const std::size_t n = next_pow2(out_len);
  ComplexSignal fa(n), fb(n);
  for (std::size_t i = 0; i < a.size(); ++i) fa[i] = static_cast<double>(a[i]);
  for (std::size_t i = 0; i < b.size(); ++i) fb[i] = b[i];
  fft_inplace(fa);
  fft_inplace(fb);
  for (std::size_t i = 0; i < n; ++i) fa[i] *= fb[i];
  ifft_inplace(fa);
  Signal out(out_len);
  for (std::size_t i = 0; i < out_len; ++i) {
    out[i] = static_cast<Sample>(fa[i].real());
  }
  return out;
}

Signal convolve_same(std::span<const Sample> a, std::span<const double> b) {
  // Use FFT when the work is large enough to pay for it.
  const bool use_fft = a.size() * b.size() > 1u << 18;
  Signal full = use_fft ? fft_convolve(a, b) : convolve(a, b);
  full.resize(a.size());
  return full;
}

}  // namespace mute::dsp
