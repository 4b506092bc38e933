#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace mute::dsp {

/// In-place radix-2 decimation-in-time FFT. `data.size()` must be a
/// power of two.
///
/// Bit-identity contract: the output is, bit for bit, that of the plain
/// radix-2 DIT loop (bit-reversal permutation, then one stage per length
/// len = 2, 4, ..., n, each butterfly (u, x) -> (u + v, u - v) with
/// vr = xr*wr - xi*wi and vi = xr*wi + xi*wr). Up to 65536 points the
/// twiddles w = cos/sin(-2*pi*k / len) come from a static table
/// (filled once, thread-safe); the inverse negates the sin by multiplying
/// it by -1. Longer transforms fall back to the twiddle recurrence
/// w_(k+1) = w_k * w_1. tests/dsp/fft_test.cpp pins the contract against
/// that loop.
///
/// Layout of the table path: a tiled bit reversal (8x8 tiles from 128
/// points on), the len = 2 stage fused with a switch to split pairs
/// (entries 2p and 2p + 1 stored as [re, re, im, im]), the remaining
/// stages two at a time (radix-2^2) on two-double lane vectors with at
/// most one single radix-2 stage, then an in-place switch back to
/// interleaved std::complex order. Regrouping moves values between
/// registers and memory but never changes an operation or its operands.
/// Heap-allocation-free; safe on the RT path.
void fft_inplace(std::span<Complex> data);

/// In-place inverse FFT (includes the 1/N normalization).
void ifft_inplace(std::span<Complex> data);

/// Out-of-place forward FFT; input is zero-padded to the next power of two
/// if `n` is larger than `input.size()`. `n == 0` means next_pow2(size).
ComplexSignal fft(std::span<const Complex> input, std::size_t n = 0);

/// Forward FFT of a real signal; returns the full complex spectrum of
/// length next_pow2(max(n, input.size())).
ComplexSignal fft_real(std::span<const Sample> input, std::size_t n = 0);

/// Inverse FFT returning only the real parts (caller asserts the spectrum
/// is conjugate-symmetric, e.g. came from fft_real-processed data).
Signal ifft_real(std::span<const Complex> spectrum);

/// Frequency in Hz of FFT bin `k` for a transform of length `n`.
double bin_frequency(std::size_t k, std::size_t n, double sample_rate);

}  // namespace mute::dsp
