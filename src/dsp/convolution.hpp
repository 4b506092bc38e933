#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"

namespace mute::dsp {

/// Full linear convolution, length a.size() + b.size() - 1. Direct O(N*M).
Signal convolve(std::span<const Sample> a, std::span<const double> b);

/// Full linear convolution via FFT (overlap of a single big transform).
/// Identical result to convolve() up to floating-point error; O(N log N).
Signal fft_convolve(std::span<const Sample> a, std::span<const double> b);

/// "Same" convolution: output length == a.size(), filter applied causally
/// (y[n] = sum_k b[k] a[n-k]); the convolution tail is discarded.
Signal convolve_same(std::span<const Sample> a, std::span<const double> b);

}  // namespace mute::dsp
