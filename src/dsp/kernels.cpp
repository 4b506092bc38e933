#include "dsp/kernels.hpp"

// This translation unit is compiled with elevated optimization flags plus
// -ffp-contract=off (see src/dsp/CMakeLists.txt): the loops below are
// written with EIGHT independent partial accumulators so the
// auto-vectorizer can map them onto full SIMD registers (8 double lanes on
// AVX-512, 2x4 on AVX2, 4x2 on SSE2) without reassociating anything — each
// source-level accumulator chain is preserved exactly, and contraction is
// off, so the result is bit-identical whichever clone the runtime
// dispatches. The lane count also breaks the loop-carried FP-add dependency
// that makes a single-accumulator dot latency-bound.
//
// MUTE_KERNEL_CLONES compiles each kernel three times (baseline x86-64,
// AVX2, AVX-512F) behind a glibc ifunc resolver, so the portable default
// binary still runs the wide path on wide machines. On other
// platforms/compilers it degrades to a single baseline clone.

#if defined(__GNUC__) || defined(__clang__)
#define MUTE_KERNEL_RESTRICT __restrict__
#else
#define MUTE_KERNEL_RESTRICT
#endif

// GCC 12's vectorizer turns the alternating subtract/add of a complex
// multiply-accumulate into vfmaddsub on FMA-capable clones (avx512f) even
// under -ffp-contract=off. Wrapping one product in an association barrier
// keeps it out of that pattern without changing its value.
#if defined(__has_builtin)
#if __has_builtin(__builtin_assoc_barrier)
#define MUTE_KERNEL_UNFUSED(x) __builtin_assoc_barrier(x)
#endif
#endif
#ifndef MUTE_KERNEL_UNFUSED
#define MUTE_KERNEL_UNFUSED(x) (x)
#endif

// No clones under ThreadSanitizer: the glibc ifunc resolvers run before
// the tsan runtime initializes and crash at load time. The single default
// clone computes the same bits, so tsan coverage is unaffected.
#if defined(__x86_64__) && defined(__gnu_linux__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_THREAD__)
#define MUTE_KERNEL_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#elif defined(__aarch64__) && defined(__gnu_linux__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_THREAD__) && __GNUC__ >= 14
// ARM relay/edge hardware: GCC 14 grew aarch64 function multi-versioning.
// Advanced SIMD (NEON) is the mandatory baseline lane set on aarch64, so
// the "default" clone is already NEON-vectorized by the same eight-lane
// accumulator structure; the extra clones cover SVE-class edge silicon the
// way avx2/avx512f cover wide x86, behind the identical ifunc dispatch.
#define MUTE_KERNEL_CLONES \
  __attribute__((target_clones("default", "sve", "sve2")))
#else
#define MUTE_KERNEL_CLONES
#endif

namespace mute::dsp::kernels {

MUTE_KERNEL_CLONES
double dot(const double* a_in, const double* b_in, std::size_t n) {
  const double* MUTE_KERNEL_RESTRICT a = a_in;
  const double* MUTE_KERNEL_RESTRICT b = b_in;
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  double s4 = 0.0, s5 = 0.0, s6 = 0.0, s7 = 0.0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
    s4 += a[i + 4] * b[i + 4];
    s5 += a[i + 5] * b[i + 5];
    s6 += a[i + 6] * b[i + 6];
    s7 += a[i + 7] * b[i + 7];
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += a[i] * b[i];
  return (((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))) + tail;
}

MUTE_KERNEL_CLONES
double energy(const double* x_in, std::size_t n) {
  const double* MUTE_KERNEL_RESTRICT x = x_in;
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  double s4 = 0.0, s5 = 0.0, s6 = 0.0, s7 = 0.0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    s0 += x[i] * x[i];
    s1 += x[i + 1] * x[i + 1];
    s2 += x[i + 2] * x[i + 2];
    s3 += x[i + 3] * x[i + 3];
    s4 += x[i + 4] * x[i + 4];
    s5 += x[i + 5] * x[i + 5];
    s6 += x[i + 6] * x[i + 6];
    s7 += x[i + 7] * x[i + 7];
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += x[i] * x[i];
  return (((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))) + tail;
}

MUTE_KERNEL_CLONES
double axpy_leaky_norm(double* w_in, const double* x_in, double keep, double g,
                       std::size_t n) {
  double* MUTE_KERNEL_RESTRICT w = w_in;
  const double* MUTE_KERNEL_RESTRICT x = x_in;
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  double s4 = 0.0, s5 = 0.0, s6 = 0.0, s7 = 0.0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const double w0 = keep * w[i] + g * x[i];
    const double w1 = keep * w[i + 1] + g * x[i + 1];
    const double w2 = keep * w[i + 2] + g * x[i + 2];
    const double w3 = keep * w[i + 3] + g * x[i + 3];
    const double w4 = keep * w[i + 4] + g * x[i + 4];
    const double w5 = keep * w[i + 5] + g * x[i + 5];
    const double w6 = keep * w[i + 6] + g * x[i + 6];
    const double w7 = keep * w[i + 7] + g * x[i + 7];
    w[i] = w0;
    w[i + 1] = w1;
    w[i + 2] = w2;
    w[i + 3] = w3;
    w[i + 4] = w4;
    w[i + 5] = w5;
    w[i + 6] = w6;
    w[i + 7] = w7;
    s0 += w0 * w0;
    s1 += w1 * w1;
    s2 += w2 * w2;
    s3 += w3 * w3;
    s4 += w4 * w4;
    s5 += w5 * w5;
    s6 += w6 * w6;
    s7 += w7 * w7;
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double wi = keep * w[i] + g * x[i];
    w[i] = wi;
    tail += wi * wi;
  }
  return (((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))) + tail;
}

MUTE_KERNEL_CLONES
void scaled_accumulate(double* acc_in, const double* x_in, double s,
                       std::size_t n) {
  double* MUTE_KERNEL_RESTRICT acc = acc_in;
  const double* MUTE_KERNEL_RESTRICT x = x_in;
  for (std::size_t i = 0; i < n; ++i) acc[i] += s * x[i];
}

// The fused FxLMS pass. It is written on explicit eight-double lane
// vectors rather than in the scalar-unrolled style above: with three
// reductions and a store in one loop, the auto-vectorizer turns that style
// into a shuffle-heavy loop slower than the three separate kernels
// (DESIGN.md §10.2). Each vector lane is one of the scalar kernels'
// accumulators, the operations are lane-wise, contraction is off and the
// tail and fold are theirs, so every result keeps their bits on every
// clone (the baseline clone splits a vector into 2-lane halves, AVX2 into
// 4-lane halves; neither crosses lanes).
namespace {

using Lanes = double __attribute__((vector_size(8 * sizeof(double))));

inline void load_lanes(Lanes& v, const double* p) {
  __builtin_memcpy(&v, p, sizeof v);
}

inline void store_lanes(double* p, const Lanes& v) {
  __builtin_memcpy(p, &v, sizeof v);
}

// The scalar kernels' fold of their eight accumulators and the tail.
inline double fold_lanes(const Lanes& s, double tail) {
  return (((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))) +
         tail;
}

}  // namespace

MUTE_KERNEL_CLONES
AxpyDots axpy_leaky_norm_dots(double* w_in, const double* u_in, double keep,
                              double g, std::size_t n, const double* x_in,
                              const double* h_in, std::size_t m) {
  double* MUTE_KERNEL_RESTRICT w = w_in;
  const double* MUTE_KERNEL_RESTRICT u = u_in;
  const double* MUTE_KERNEL_RESTRICT x = x_in;
  const double* MUTE_KERNEL_RESTRICT h = h_in;
  Lanes norm2 = {}, wx = {}, hx = {};
  Lanes wv = {}, uv = {}, xv = {}, hv = {};
  const std::size_t n8 = n - n % 8;
  const std::size_t m8 = m - m % 8;
  const std::size_t both = n8 < m8 ? n8 : m8;
  std::size_t i = 0;
  for (; i < both; i += 8) {
    load_lanes(wv, w + i);
    load_lanes(uv, u + i);
    load_lanes(xv, x + i);
    load_lanes(hv, h + i);
    wv = keep * wv + g * uv;
    store_lanes(w + i, wv);
    norm2 += wv * wv;
    wx += wv * xv;
    hx += hv * xv;
  }
  for (; i < n8; i += 8) {  // weights longer than the secondary path
    load_lanes(wv, w + i);
    load_lanes(uv, u + i);
    load_lanes(xv, x + i);
    wv = keep * wv + g * uv;
    store_lanes(w + i, wv);
    norm2 += wv * wv;
    wx += wv * xv;
  }
  for (i = both; i < m8; i += 8) {  // secondary path longer than the weights
    load_lanes(xv, x + i);
    load_lanes(hv, h + i);
    hx += hv * xv;
  }
  double norm2_tail = 0.0, wx_tail = 0.0, hx_tail = 0.0;
  for (i = n8; i < n; ++i) {
    const double wi = keep * w[i] + g * u[i];
    w[i] = wi;
    norm2_tail += wi * wi;
    wx_tail += wi * x[i];
  }
  for (i = m8; i < m; ++i) hx_tail += h[i] * x[i];
  return {fold_lanes(norm2, norm2_tail), fold_lanes(wx, wx_tail),
          fold_lanes(hx, hx_tail)};
}

// The interleaved-complex family below has no reduction, so no lane
// splitting is needed: each complex element is an independent 4-flop (or
// 6-flop) update the vectorizer can pack directly from the interleaved
// layout. `n` counts complex elements; the pointers address 2n doubles.

MUTE_KERNEL_CLONES
void cmul_accumulate(double* acc_in, const double* a_in, const double* b_in,
                     std::size_t n) {
  double* MUTE_KERNEL_RESTRICT acc = acc_in;
  const double* MUTE_KERNEL_RESTRICT a = a_in;
  const double* MUTE_KERNEL_RESTRICT b = b_in;
  for (std::size_t k = 0; k < n; ++k) {
    const double ar = a[2 * k], ai = a[2 * k + 1];
    const double br = b[2 * k], bi = b[2 * k + 1];
    acc[2 * k] += MUTE_KERNEL_UNFUSED(ar * br) - ai * bi;
    acc[2 * k + 1] += MUTE_KERNEL_UNFUSED(ar * bi) + ai * br;
  }
}

MUTE_KERNEL_CLONES
void cmul_conj_scaled(double* out_in, const double* a_in, const double* b_in,
                      const double* power_in, double eps, std::size_t n) {
  double* MUTE_KERNEL_RESTRICT out = out_in;
  const double* MUTE_KERNEL_RESTRICT a = a_in;
  const double* MUTE_KERNEL_RESTRICT b = b_in;
  const double* MUTE_KERNEL_RESTRICT power = power_in;
  for (std::size_t k = 0; k < n; ++k) {
    const double ar = a[2 * k], ai = a[2 * k + 1];
    const double br = b[2 * k], bi = b[2 * k + 1];
    const double s = 1.0 / (power[k] + eps);
    out[2 * k] = (ar * br + ai * bi) * s;
    out[2 * k + 1] = (ar * bi - ai * br) * s;
  }
}

MUTE_KERNEL_CLONES
void magsq_accumulate(double* acc_in, const double* z_in, std::size_t n) {
  double* MUTE_KERNEL_RESTRICT acc = acc_in;
  const double* MUTE_KERNEL_RESTRICT z = z_in;
  for (std::size_t k = 0; k < n; ++k) {
    acc[k] += z[2 * k] * z[2 * k] + z[2 * k + 1] * z[2 * k + 1];
  }
}

MUTE_KERNEL_CLONES
void window_into_complex(double* out_in, const double* w_in, const float* x_in,
                         std::size_t n) {
  double* MUTE_KERNEL_RESTRICT out = out_in;
  const double* MUTE_KERNEL_RESTRICT w = w_in;
  const float* MUTE_KERNEL_RESTRICT x = x_in;
  for (std::size_t k = 0; k < n; ++k) {
    out[2 * k] = w[k] * static_cast<double>(x[k]);
    out[2 * k + 1] = 0.0;
  }
}

namespace naive {

double dot(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

double energy(const double* x, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * x[i];
  return acc;
}

double axpy_leaky_norm(double* w, const double* x, double keep, double g,
                       std::size_t n) {
  double norm2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = keep * w[i] + g * x[i];
    norm2 += w[i] * w[i];
  }
  return norm2;
}

void scaled_accumulate(double* acc, const double* x, double s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += s * x[i];
}

AxpyDots axpy_leaky_norm_dots(double* w, const double* u, double keep,
                              double g, std::size_t n, const double* x,
                              const double* h, std::size_t m) {
  AxpyDots r{0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = keep * w[i] + g * u[i];
    r.norm2 += w[i] * w[i];
    r.wx += w[i] * x[i];
  }
  for (std::size_t i = 0; i < m; ++i) r.hx += h[i] * x[i];
  return r;
}

void cmul_accumulate(double* acc, const double* a, const double* b,
                     std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double ar = a[2 * k], ai = a[2 * k + 1];
    const double br = b[2 * k], bi = b[2 * k + 1];
    acc[2 * k] += ar * br - ai * bi;
    acc[2 * k + 1] += ar * bi + ai * br;
  }
}

void cmul_conj_scaled(double* out, const double* a, const double* b,
                      const double* power, double eps, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double ar = a[2 * k], ai = a[2 * k + 1];
    const double br = b[2 * k], bi = b[2 * k + 1];
    const double s = 1.0 / (power[k] + eps);
    out[2 * k] = (ar * br + ai * bi) * s;
    out[2 * k + 1] = (ar * bi - ai * br) * s;
  }
}

void magsq_accumulate(double* acc, const double* z, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    acc[k] += z[2 * k] * z[2 * k] + z[2 * k + 1] * z[2 * k + 1];
  }
}

void window_into_complex(double* out, const double* w, const float* x,
                         std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    out[2 * k] = w[k] * static_cast<double>(x[k]);
    out[2 * k + 1] = 0.0;
  }
}

}  // namespace naive

}  // namespace mute::dsp::kernels
