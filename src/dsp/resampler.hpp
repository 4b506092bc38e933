#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace mute::dsp {

/// Smallest rational L/M approximating `to_rate / from_rate` (the ratio a
/// StreamingResampler for that rate pair runs).
std::pair<std::size_t, std::size_t> rational_resample_ratio(double from_rate,
                                                            double to_rate);

/// Rational-ratio polyphase resampler (upsample by L, anti-alias filter,
/// downsample by M), block-streaming. It moves audio between the 16 kHz
/// acoustic domain and the 256 kHz RF baseband of the relay simulation.
/// Output j depends only on inputs at or before base = j*M/L, reaching back
/// at most the prototype span, so carrying that input tail across calls
/// makes block processing BIT-IDENTICAL to one whole-record call,
/// regardless of how the stream is partitioned. That equivalence is what
/// lets the mesh simulator stream RF per control block (and retune channels
/// mid-run) while staying sample-exact with the whole-record pipeline.
class StreamingResampler {
 public:
  /// Resample from `from_rate` to `to_rate` at rational_resample_ratio().
  StreamingResampler(double from_rate, double to_rate);

  /// Consume a block; returns every output sample whose input dependencies
  /// are now available. Total output length after consuming T inputs is
  /// (T*L)/M.
  Signal process(std::span<const Sample> in);

 private:
  std::size_t l_ = 1, m_ = 1;
  std::vector<double> prototype_;  // lowpass at rate fs*L
  // Carried input context: the last `tail_.size()` inputs (M-1 of base
  // reach-back plus the prototype span), oldest-first.
  std::vector<Sample> tail_;
  std::size_t tail_len_ = 0;
  std::vector<Sample> work_;     // [tail | block] linearization scratch
  std::uint64_t in_count_ = 0;   // total inputs consumed
  std::uint64_t out_count_ = 0;  // total outputs produced
};

}  // namespace mute::dsp
