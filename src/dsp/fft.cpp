#include "dsp/fft.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <mutex>

#include "common/error.hpp"
#include "common/math_utils.hpp"

namespace mute::dsp {

namespace {

// Gold-Rader bit reversal, for transforms below kTiledBitReverseMin.
void bit_reverse_gold_rader(std::span<Complex> data) {
  const std::size_t n = data.size();
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
}

// Tiled bit reversal. With the index split as i = a|b|c (a and c three
// bits each), rev(i) = rev(c)|rev(b)|rev(a): tile b (the 8 rows of 8
// contiguous entries that share b) trades places with tile rev(b), entry
// (a, c) going to (rev c, rev a). Gold-Rader's single pass walks both
// halves of every swap at power-of-two strides and thrashes L1 sets; a
// tile pair touches 16 rows of 128 bytes.
constexpr std::size_t kTiledBitReverseMin = 128;
constexpr std::array<std::size_t, 8> kRev3 = {0, 4, 2, 6, 1, 5, 3, 7};

void bit_reverse_tiled(std::span<Complex> data) {
  const std::size_t n = data.size();
  const std::size_t tiles = n >> 6;  // values of b
  const int hi = std::countr_zero(n) - 3;  // shift of a
  Complex* d = data.data();
  std::size_t rb = 0;  // rev(b), advanced Gold-Rader style
  for (std::size_t b = 0; b < tiles; ++b) {
    if (b > 0) {
      std::size_t bit = tiles >> 1;
      for (; rb & bit; bit >>= 1) rb ^= bit;
      rb ^= bit;
    }
    if (rb < b) continue;  // that pair was swapped from tile rb
    if (rb == b) {  // the tile maps onto itself: swap each pair once
      const std::size_t mid = b << 3;
      for (std::size_t a = 0; a < 8; ++a) {
        for (std::size_t c = 0; c < 8; ++c) {
          const std::size_t i = (a << hi) | mid | c;
          const std::size_t j = (kRev3[c] << hi) | mid | kRev3[a];
          if (i < j) std::swap(d[i], d[j]);
        }
      }
      continue;
    }
    for (std::size_t a = 0; a < 8; ++a) {
      Complex* row = d + ((a << hi) | (b << 3));
      Complex* col = d + ((rb << 3) | kRev3[a]);
      for (std::size_t c = 0; c < 8; ++c) {
        std::swap(row[c], col[kRev3[c] << hi]);
      }
    }
  }
}

void bit_reverse_permute(std::span<Complex> data) {
  if (data.size() >= kTiledBitReverseMin) {
    bit_reverse_tiled(data);
  } else {
    bit_reverse_gold_rader(data);
  }
}

// Forward twiddle table for every stage length up to kMaxTwiddleFft,
// shared by all transforms: stage len owns doubles [len, 2 len) and holds
// w_k = exp(-2*pi*i * k / len) for k in [0, len/2) (the inverse transform
// negates sin on the fly). The len = 2 slice is [cos, sin] of w_0; longer
// slices store each twiddle pair as [c_k, c_k+1, s_k, s_k+1], the
// split-pair layout the butterflies load. Stage slices never overlap, and
// each stage's values depend only on its own length. Static storage
// (1 MiB, one per process) filled once under std::call_once: fft_inplace
// stays heap-allocation-free and safe to call from the RT path. The table
// covers the relay-selection sizes (GccPhatPlan, up to 2 s periods at
// 16 kHz); longer offline transforms fall back to the twiddle recurrence.
constexpr std::size_t kMaxTwiddleFft = 65536;
std::array<double, 2 * kMaxTwiddleFft> g_twiddles;
std::once_flag g_twiddles_once;

void build_twiddles() {
  for (std::size_t len = 2; len <= kMaxTwiddleFft; len <<= 1) {
    double* t = g_twiddles.data() + len;
    const double angle = -kTwoPi / static_cast<double>(len);
    for (std::size_t k = 0; k < len / 2; ++k) {
      const double c = std::cos(angle * static_cast<double>(k));
      const double s = std::sin(angle * static_cast<double>(k));
      if (len == 2) {
        t[0] = c;
        t[1] = s;
        continue;
      }
      const std::size_t at = 2 * (k - k % 2) + k % 2;
      t[at] = c;
      t[at + 2] = s;
    }
  }
}

// The scalar butterfly, on one (re, im) entry each side. Manual
// arithmetic: std::complex operator* routes through the NaN-propagating
// __muldc3 helper.
inline void butterfly(double* pa, double* pb, double wr, double wi) {
  const double xr = pb[0], xi = pb[1];
  const double vr = xr * wr - xi * wi;
  const double vi = xr * wi + xi * wr;
  const double ur = pa[0], ui = pa[1];
  pa[0] = ur + vr;
  pa[1] = ui + vi;
  pb[0] = ur - vr;
  pb[1] = ui - vi;
}

// Radix-2 stages on a twiddle recurrence, for transforms past the table.
void recurrence_stages(double* d, std::size_t n, bool inverse) {
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double angle =
        (inverse ? kTwoPi : -kTwoPi) / static_cast<double>(len);
    const double wr0 = std::cos(angle), wi0 = std::sin(angle);
    for (std::size_t i = 0; i < n; i += len) {
      double wr = 1.0, wi = 0.0;
      for (std::size_t k = 0; k < half; ++k) {
        butterfly(d + 2 * (i + k), d + 2 * (i + k + half), wr, wi);
        const double nwr = wr * wr0 - wi * wi0;
        wi = wr * wi0 + wi * wr0;
        wr = nwr;
      }
    }
  }
}

// Split-pair layout: entries 2p and 2p + 1 are stored as
// [re_2p, re_2p+1, im_2p, im_2p+1], so one two-double lane vector holds
// the real (or imaginary) parts of two neighbouring butterflies. The
// entry at even index j starts at double 2j in both layouts. GCC vector
// extensions, as in kernels.cpp: the lanes compile to SSE2 (or NEON) with
// no intrinsics header and no CPU dispatch, and every operation is
// lane-wise, so each lane computes exactly the reference's scalar bits.
using Lane2 = double __attribute__((vector_size(2 * sizeof(double))));

struct Split {
  Lane2 re, im;
};

inline Lane2 load2(const double* p) {
  Lane2 v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

inline void store2(double* p, Lane2 v) { __builtin_memcpy(p, &v, sizeof v); }

inline Split load_split(const double* p) { return {load2(p), load2(p + 2)}; }

inline void store_split(double* p, const Split& x) {
  store2(p, x.re);
  store2(p + 2, x.im);
}

// Twiddles k and k + 1 of a stage slice; sign -1 conjugates (inverse).
inline Split twiddle(const double* t, std::size_t k, double sign) {
  const Split w = load_split(t + 2 * k);
  return {w.re, sign * w.im};
}

// butterfly() on two lanes: the same operations on the same operands.
inline void butterfly(Split& a, Split& b, const Split& w) {
  const Lane2 vr = b.re * w.re - b.im * w.im;
  const Lane2 vi = b.re * w.im + b.im * w.re;
  b.re = a.re - vr;
  b.im = a.im - vi;
  a.re = a.re + vr;
  a.im = a.im + vi;
}

// Stage len = 2 on interleaved input, written out in split-pair layout:
// butterflies (j, j+1) and (j+2, j+3) share one lane vector each side.
void first_stage_to_split(double* d, std::size_t n, double wr, double wi) {
  const Split w = {Lane2{wr, wr}, Lane2{wi, wi}};
  for (std::size_t j = 0; j < 2 * n; j += 8) {
    const Lane2 c0 = load2(d + j), c1 = load2(d + j + 2);
    const Lane2 c2 = load2(d + j + 4), c3 = load2(d + j + 6);
    Split a = {__builtin_shufflevector(c0, c2, 0, 2),
               __builtin_shufflevector(c0, c2, 1, 3)};
    Split b = {__builtin_shufflevector(c1, c3, 0, 2),
               __builtin_shufflevector(c1, c3, 1, 3)};
    butterfly(a, b, w);
    store2(d + j, __builtin_shufflevector(a.re, b.re, 0, 2));
    store2(d + j + 2, __builtin_shufflevector(a.im, b.im, 0, 2));
    store2(d + j + 4, __builtin_shufflevector(a.re, b.re, 1, 3));
    store2(d + j + 6, __builtin_shufflevector(a.im, b.im, 1, 3));
  }
}

// One radix-2 stage (len >= 4) in split-pair layout.
void radix2_stage(double* d, std::size_t n, std::size_t len, double sign) {
  const double* t = g_twiddles.data() + len;
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    for (std::size_t k = 0; k < half; k += 2) {
      double* pa = d + 2 * (i + k);
      double* pb = pa + 2 * half;
      Split a = load_split(pa), b = load_split(pb);
      butterfly(a, b, twiddle(t, k, sign));
      store_split(pa, a);
      store_split(pb, b);
    }
  }
}

// Stages len and 2 len (len >= 4) in one pass (radix-2^2): the four
// quarter-block entries k, k+q, k+2q, k+3q (q = len/2) stay in registers
// through both stages' butterflies, in the reference's order.
void radix22_stages(double* d, std::size_t n, std::size_t len, double sign) {
  const double* t1 = g_twiddles.data() + len;
  const double* t2 = g_twiddles.data() + 2 * len;
  const std::size_t q = len / 2;
  for (std::size_t i = 0; i < n; i += 2 * len) {
    for (std::size_t k = 0; k < q; k += 2) {
      double* p0 = d + 2 * (i + k);
      double* p1 = p0 + 2 * q;
      double* p2 = p0 + 4 * q;
      double* p3 = p0 + 6 * q;
      Split x0 = load_split(p0), x1 = load_split(p1);
      Split x2 = load_split(p2), x3 = load_split(p3);
      const Split w1 = twiddle(t1, k, sign);
      butterfly(x0, x1, w1);
      butterfly(x2, x3, w1);
      butterfly(x0, x2, twiddle(t2, k, sign));
      butterfly(x1, x3, twiddle(t2, k + q, sign));
      store_split(p0, x0);
      store_split(p1, x1);
      store_split(p2, x2);
      store_split(p3, x3);
    }
  }
}

// Back from split-pair to interleaved std::complex order, in place.
void split_to_interleaved(double* d, std::size_t n) {
  for (std::size_t j = 0; j < 2 * n; j += 4) {
    const Lane2 re = load2(d + j), im = load2(d + j + 2);
    store2(d + j, __builtin_shufflevector(re, im, 0, 2));
    store2(d + j + 2, __builtin_shufflevector(re, im, 1, 3));
  }
}

// The plain radix-2 DIT loop, bit for bit (fft.hpp): every butterfly is
// u +/- v with vr = xr wr - xi wi and vi = xr wi + xi wr on the same
// twiddle doubles, so regrouping stages, lanes and layouts moves values
// but never changes one.
void fft_core(std::span<Complex> data, bool inverse) {
  const std::size_t n = data.size();
  ensure(is_pow2(n), "FFT length must be a power of two");
  bit_reverse_permute(data);
  auto* d = reinterpret_cast<double*>(data.data());
  if (n > kMaxTwiddleFft) {
    recurrence_stages(d, n, inverse);
    return;
  }
  if (n == 1) return;
  std::call_once(g_twiddles_once, build_twiddles);
  const double sign = inverse ? -1.0 : 1.0;  // conjugate table for inverse
  const double* t = g_twiddles.data();
  if (n == 2) {
    butterfly(d, d + 2, t[2], sign * t[3]);
    return;
  }
  first_stage_to_split(d, n, t[2], sign * t[3]);
  std::size_t len = 4;
  if (std::countr_zero(n) % 2 == 0) {  // n = 4^j: an odd stage count left
    radix2_stage(d, n, len, sign);
    len = 8;
  }
  for (; len < n; len <<= 2) radix22_stages(d, n, len, sign);
  split_to_interleaved(d, n);
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
