#pragma once

#include <cstddef>

#include "common/rt_annotations.hpp"

/// Shared hot-path DSP kernels.
///
/// Every per-sample loop in the adaptive engines and the FIR filter funnels
/// through these primitives, so they carry the whole real-time budget
/// (DESIGN.md §10). Contracts:
///
///   dot(a, b, n)                 sum_i a[i] * b[i]. `a` and `b` must not
///                                alias (restrict-qualified); use energy()
///                                for a self-product.
///   energy(x, n)                 sum_i x[i]^2.
///   axpy_leaky_norm(w, x, ...)   w[i] = keep * w[i] + g * x[i] for all i,
///                                returns the *new* ||w||^2 — the fused
///                                FxLMS weight update. `w` and `x` must
///                                not alias.
///   scaled_accumulate(acc, ...)  acc[i] += s * x[i] — the tap-major inner
///                                step of block FIR filtering and the
///                                AdaptiveFir NLMS step. No aliasing.
///   axpy_leaky_norm_dots(w, u, keep, g, n, x, h, m)
///                                one pass of the FxLMS sample: the
///                                axpy_leaky_norm update of w over n taps,
///                                then {||w||^2, dot(w, x, n), dot(h, x, m)}
///                                with the NEW w. x holds max(n, m) values.
///                                Each result is bit-identical to the
///                                separate kernel (same lanes, tail and
///                                fold order; DESIGN.md §10.2). `w` must
///                                alias none of u, x, h.
///
/// The frequency-domain block filter (adaptive::BlockFdaf), the
/// partitioned FFT convolution (dsp::FirFilter) and the Welch estimators
/// add a second family operating on interleaved complex data. A `z`
/// argument is an interleaved (re, im) double array — the guaranteed
/// memory layout of std::complex<double> — and `n` counts COMPLEX
/// elements (2n doubles):
///
///   cmul_accumulate(acc, a, b, n)       acc[k] += a[k] * b[k] (complex
///                                       multiply) — the per-partition
///                                       spectral convolution step.
///   cmul_conj_scaled(out, a, b, p, eps, n)
///                                       out[k] = conj(a[k]) * b[k]
///                                                / (p[k] + eps) — the
///                                       per-bin-normalized FDAF gradient
///                                       (p is a real per-bin power array).
///   magsq_accumulate(acc, z, n)         acc[k] += |z[k]|^2 (acc is real) —
///                                       Welch periodogram accumulation and
///                                       the FDAF's first bin-power block.
///   window_into_complex(out, w, x, n)   out[k] = (w[k] * x[k], 0) — the
///                                       windowed real-to-complex load that
///                                       fronts every FFT in the spectral
///                                       estimators (x is float Sample
///                                       data, w the double window).
///
/// Numerical contract: results are deterministic for a fixed build (fixed
/// accumulation order — wide independent partial sums, folded in a fixed
/// sequence) but are NOT bit-identical to the single-accumulator naive::
/// forms; they agree to a relative 1e-12-ish reassociation error, which the
/// equivalence tests in tests/dsp/kernels_test.cpp pin. The naive::
/// implementations exist as the reference semantics and must never be
/// "optimized".
///
/// All kernels are allocation-free and safe inside MUTE_RT_SCOPE sections.
/// n == 0 is valid (returns 0 / does nothing).
namespace mute::dsp::kernels {

MUTE_RT_SAFE double dot(const double* a, const double* b, std::size_t n);
MUTE_RT_SAFE double energy(const double* x, std::size_t n);
MUTE_RT_SAFE double axpy_leaky_norm(double* w, const double* x, double keep,
                                    double g, std::size_t n);
MUTE_RT_SAFE void scaled_accumulate(double* acc, const double* x, double s,
                                    std::size_t n);

/// The three reductions of axpy_leaky_norm_dots.
struct AxpyDots {
  double norm2;  // ||w||^2 after the update
  double wx;     // dot(w, x, n) with the updated w
  double hx;     // dot(h, x, m)
};
MUTE_RT_SAFE AxpyDots axpy_leaky_norm_dots(double* w, const double* u,
                                           double keep, double g,
                                           std::size_t n, const double* x,
                                           const double* h, std::size_t m);

// Interleaved-complex kernels (n counts complex elements; no aliasing
// between the output and any input).
MUTE_RT_SAFE void cmul_accumulate(double* acc, const double* a,
                                  const double* b, std::size_t n);
MUTE_RT_SAFE void cmul_conj_scaled(double* out, const double* a,
                                   const double* b, const double* power,
                                   double eps, std::size_t n);
MUTE_RT_SAFE void magsq_accumulate(double* acc, const double* z,
                                   std::size_t n);
MUTE_RT_SAFE void window_into_complex(double* out, const double* w,
                                      const float* x, std::size_t n);

/// Reference implementations: textbook single-accumulator loops, kept for
/// equivalence testing and as the documentation of record for the kernel
/// semantics.
namespace naive {

double dot(const double* a, const double* b, std::size_t n);
double energy(const double* x, std::size_t n);
double axpy_leaky_norm(double* w, const double* x, double keep, double g,
                       std::size_t n);
void scaled_accumulate(double* acc, const double* x, double s, std::size_t n);
AxpyDots axpy_leaky_norm_dots(double* w, const double* u, double keep,
                              double g, std::size_t n, const double* x,
                              const double* h, std::size_t m);
void cmul_accumulate(double* acc, const double* a, const double* b,
                     std::size_t n);
void cmul_conj_scaled(double* out, const double* a, const double* b,
                      const double* power, double eps, std::size_t n);
void magsq_accumulate(double* acc, const double* z, std::size_t n);
void window_into_complex(double* out, const double* w, const float* x,
                         std::size_t n);

}  // namespace naive

}  // namespace mute::dsp::kernels
