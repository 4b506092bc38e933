#pragma once

#include <cstddef>
#include <span>

#include "common/types.hpp"

namespace mute::dsp {

/// Root-mean-square level of a signal (0 for empty input).
double rms(std::span<const Sample> x);

/// Largest absolute sample value.
double peak(std::span<const Sample> x);

/// Scale the signal so its RMS equals `target_rms` (no-op on silence).
void normalize_rms(std::span<Sample> x, double target_rms);

/// Prepend `n` zeros (an integer bulk delay applied offline).
Signal delay_signal(std::span<const Sample> x, std::size_t n);

/// Mean of the signal.
double mean(std::span<const Sample> x);

/// Remove the DC component in place.
void remove_dc(std::span<Sample> x);

}  // namespace mute::dsp
