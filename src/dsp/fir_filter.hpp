#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rt_annotations.hpp"
#include "common/types.hpp"
#include "dsp/ring_history.hpp"

namespace mute::dsp {

/// Streaming FIR filter with zero added latency: every process() call
/// returns y[n] = sum_k h[k] x[n-k] for the sample it was just given.
/// Coefficients are double precision; samples are Sample (float) with a
/// double accumulator, per the library convention.
///
/// The first kHeadTaps coefficients run direct-form: one kernels::dot over
/// a doubled-buffer RingHistory's contiguous newest-first window, O(1)
/// sample admission. A filter that short has no other state, so its output
/// is exactly that dot cast to Sample.
///
/// Longer filters add a uniformly partitioned overlap-save tail (Gardner,
/// JAES 1995) for taps >= kHeadTaps. The tail is split into P partitions
/// of kTailBlock taps whose half-spectra (real transform of length
/// N = 2 * kTailBlock, 1/N folded in) are built here. Every kTailBlock
/// samples the head window (the newest N inputs) is transformed and enters
/// a frequency-domain delay line of P + 1 half-spectra; the partition MAC
/// and one inverse transform then fill the tail outputs of the next
/// kTailBlock samples. Each real transform runs as one complex FFT of
/// length kTailBlock. The head covers the two blocks the tail cannot see
/// yet, so no output waits on a block. Output agrees with the direct sum to
/// reassociation and FFT rounding before the float cast (DESIGN.md §10.7).
///
/// All buffers are sized in the constructor; process() never allocates.
class FirFilter {
 public:
  static constexpr std::size_t kHeadTaps = 256;
  static constexpr std::size_t kTailBlock = 128;

  explicit FirFilter(std::vector<double> coefficients);

  /// Process one sample.
  MUTE_RT_SAFE Sample process(Sample x);

  /// Process a block (in == out sizes): the scalar process() per sample,
  /// so a block run and a sample-by-sample run are bit-identical and may
  /// be interleaved freely. `in` and `out` may be the same span.
  MUTE_RT_SAFE void process(std::span<const Sample> in, std::span<Sample> out);

  /// Convenience: filter a whole signal, same length as input.
  MUTE_RT_UNSAFE Signal filter(std::span<const Sample> in);

 private:
  void run_tail_block();

  std::vector<double> head_;     // h[0, min(taps, kHeadTaps))
  RingHistory<double> history_;  // newest head_.size() inputs
  // Partitioned tail; all empty and never touched when partitions_ == 0.
  std::size_t partitions_ = 0;
  ComplexSignal spectra_;  // partitions_ half-spectra, 1/N folded in
  ComplexSignal fdl_;      // partitions_ + 1 input half-spectra (a ring)
  std::size_t fdl_newest_ = 0;    // fdl_ slot of the latest input spectrum
  ComplexSignal work_;            // kTailBlock: packed real FFT scratch
  ComplexSignal acc_;             // kTailBlock + 1: partition MAC
  std::vector<double> tail_out_;  // tail term of this block's outputs
  std::size_t phase_ = 0;         // samples taken in the current block
};

}  // namespace mute::dsp
