#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rt_annotations.hpp"
#include "common/types.hpp"

namespace mute::adaptive {

/// Block frequency-domain adaptive filter (overlap-save FDAF with the
/// gradient constraint), the standard fast alternative to transversal
/// NLMS for long filters.
///
/// Why it exists here: the paper's TMS320C6713 capped the whole system at
/// an 8 kHz sample rate because the per-sample O(taps) update dominated
/// its budget ("a faster DSP will ease the problem", Section 5.2). FDAF
/// computes the same NLMS-family update in O(log N) per sample with
/// *per-bin* normalization, which also equalizes convergence across the
/// deep notches of reverberant spectra. Exposed for experimentation only:
/// its users are bench/ablation_extensions, the BM_FdafBlock micro
/// benchmark and the tests. Secondary-path identification
/// (adaptive::identify_system) runs the transversal AdaptiveFir, and the
/// runtime LANC loop keeps the transversal engine, whose per-sample
/// latency model matches the hardware story.
class BlockFdaf {
 public:
  struct Options {
    std::size_t taps = 512;   // filter length (rounded up to a power of 2)
    double mu = 0.5;          // per-bin NLMS step
    double epsilon = 1e-8;    // bin-power regularizer
    double power_alpha = 0.9; // EMA for the per-bin power estimate; seeded
                              // from the first block's own power so the
                              // first update never normalizes by epsilon
                              // alone (cold-start divergence)
    bool constrained = true;  // gradient constraint (zero the tail)
  };

  explicit BlockFdaf(Options options);

  std::size_t block_size() const { return block_; }
  std::size_t tap_count() const { return block_; }

  /// Process one block of exactly block_size() samples: returns the
  /// prediction y for the block and adapts toward `desired`.
  /// (System-identification usage: x = input, desired = plant output.)
  /// Allocation-free: all FFT scratch is preallocated at construction.
  MUTE_RT_SAFE void step_block(std::span<const Sample> x,
                               std::span<const Sample> desired,
                               std::span<Sample> error_out);

  /// Convenience: run over whole records (length truncated to a multiple
  /// of the block size); returns the error signal.
  Signal identify(std::span<const Sample> x, std::span<const Sample> desired);

  /// Current time-domain weights (length tap_count()).
  std::vector<double> weights() const;

  /// Full 2B-tap circular response (diagnostics): taps [0, block) are the
  /// causal filter weights() returns; taps [block, 2B) are the wraparound
  /// half the gradient constraint exists to suppress. A constrained
  /// filter keeps that half identically zero (the constrained gradient
  /// never writes it); unconstrained adaptation leaks transient and
  /// gradient-noise energy there.
  std::vector<double> weights_full() const;

  void reset();

 private:
  Options opts_;
  std::size_t block_;      // == power-of-two taps
  std::size_t fft_;        // 2 * block_
  ComplexSignal w_;        // frequency-domain weights
  std::vector<double> x_prev_;  // previous input block (overlap-save)
  std::vector<double> bin_power_;
  bool power_primed_ = false;  // bin_power_ seeded from a real block yet?
  // Preallocated FFT scratch (step_block is RT-safe / allocation-free).
  ComplexSignal xf_;
  ComplexSignal yf_;
  ComplexSignal ef_;
  ComplexSignal grad_;
};

}  // namespace mute::adaptive
