#include "dsp/fft.hpp"

#include <array>
#include <cmath>
#include <mutex>

#include "common/error.hpp"
#include "common/math_utils.hpp"

namespace mute::dsp {

namespace {

void bit_reverse_permute(std::span<Complex> data) {
  const std::size_t n = data.size();
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
}

// Forward twiddle table for every stage length up to kMaxTwiddleFft,
// shared by all transforms: tw[len / 2 + k] = exp(-2*pi*i * k / len) for
// k in [0, len/2) (the inverse transform conjugates on the fly). Stage
// slices never overlap — offsets 1, 2, 4, ... partition [1, n), and each
// stage's values depend only on its own length. Static storage (1 MiB,
// one per process) filled once under std::call_once: fft_inplace stays
// heap-allocation-free and safe to call from the RT path. The table
// covers the relay-selection sizes (GccPhatPlan, up to 2 s periods at
// 16 kHz); longer offline transforms fall back to the twiddle recurrence.
constexpr std::size_t kMaxTwiddleFft = 65536;
std::array<double, 2 * kMaxTwiddleFft> g_twiddles;
std::once_flag g_twiddles_once;

void build_twiddles() {
  for (std::size_t len = 2; len <= kMaxTwiddleFft; len <<= 1) {
    double* t = g_twiddles.data() + len;  // complex offset len/2
    const double angle = -kTwoPi / static_cast<double>(len);
    for (std::size_t k = 0; k < len / 2; ++k) {
      t[2 * k] = std::cos(angle * static_cast<double>(k));
      t[2 * k + 1] = std::sin(angle * static_cast<double>(k));
    }
  }
}

// Manual (re, im) butterflies: std::complex operator* routes through the
// NaN-propagating __muldc3 helper, and the twiddle *recurrence* forms a
// serial dependency chain through every butterfly — together they made
// this the hot-path bottleneck (the block LANC engine is FFT-bound).
void fft_core(std::span<Complex> data, bool inverse) {
  const std::size_t n = data.size();
  ensure(is_pow2(n), "FFT length must be a power of two");
  bit_reverse_permute(data);
  auto* d = reinterpret_cast<double*>(data.data());
  const bool use_table = n <= kMaxTwiddleFft;
  if (use_table) std::call_once(g_twiddles_once, build_twiddles);
  const double sign = inverse ? -1.0 : 1.0;  // conjugate table for inverse
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    if (use_table) {
      const double* t = g_twiddles.data() + len;
      for (std::size_t i = 0; i < n; i += len) {
        double* pa = d + 2 * i;
        double* pb = d + 2 * (i + half);
        for (std::size_t k = 0; k < half; ++k) {
          const double wr = t[2 * k];
          const double wi = sign * t[2 * k + 1];
          const double xr = pb[2 * k], xi = pb[2 * k + 1];
          const double vr = xr * wr - xi * wi;
          const double vi = xr * wi + xi * wr;
          const double ur = pa[2 * k], ui = pa[2 * k + 1];
          pa[2 * k] = ur + vr;
          pa[2 * k + 1] = ui + vi;
          pb[2 * k] = ur - vr;
          pb[2 * k + 1] = ui - vi;
        }
      }
    } else {
      const double angle =
          (inverse ? kTwoPi : -kTwoPi) / static_cast<double>(len);
      const double wr0 = std::cos(angle), wi0 = std::sin(angle);
      for (std::size_t i = 0; i < n; i += len) {
        double wr = 1.0, wi = 0.0;
        double* pa = d + 2 * i;
        double* pb = d + 2 * (i + half);
        for (std::size_t k = 0; k < half; ++k) {
          const double xr = pb[2 * k], xi = pb[2 * k + 1];
          const double vr = xr * wr - xi * wi;
          const double vi = xr * wi + xi * wr;
          const double ur = pa[2 * k], ui = pa[2 * k + 1];
          pa[2 * k] = ur + vr;
          pa[2 * k + 1] = ui + vi;
          pb[2 * k] = ur - vr;
          pb[2 * k + 1] = ui - vi;
          const double nwr = wr * wr0 - wi * wi0;
          wi = wr * wi0 + wi * wr0;
          wr = nwr;
        }
      }
    }
  }
}

}  // namespace

void fft_inplace(std::span<Complex> data) { fft_core(data, /*inverse=*/false); }

void ifft_inplace(std::span<Complex> data) {
  fft_core(data, /*inverse=*/true);
  const double inv_n = 1.0 / static_cast<double>(data.size());
  for (auto& c : data) c *= inv_n;
}

ComplexSignal fft(std::span<const Complex> input, std::size_t n) {
  const std::size_t want = std::max(n, input.size());
  ComplexSignal buf(next_pow2(std::max<std::size_t>(want, 1)));
  std::copy(input.begin(), input.end(), buf.begin());
  fft_inplace(buf);
  return buf;
}

ComplexSignal fft_real(std::span<const Sample> input, std::size_t n) {
  const std::size_t want = std::max(n, input.size());
  ComplexSignal buf(next_pow2(std::max<std::size_t>(want, 1)));
  for (std::size_t i = 0; i < input.size(); ++i) {
    buf[i] = Complex(static_cast<double>(input[i]), 0.0);
  }
  fft_inplace(buf);
  return buf;
}

Signal ifft_real(std::span<const Complex> spectrum) {
  ComplexSignal buf(spectrum.begin(), spectrum.end());
  ifft_inplace(buf);
  Signal out(buf.size());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    out[i] = static_cast<Sample>(buf[i].real());
  }
  return out;
}

double bin_frequency(std::size_t k, std::size_t n, double sample_rate) {
  ensure(n > 0, "transform length must be positive");
  return static_cast<double>(k) * sample_rate / static_cast<double>(n);
}

}  // namespace mute::dsp
