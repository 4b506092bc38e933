#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "adaptive/fxlms.hpp"
#include "common/rt_annotations.hpp"
#include "common/types.hpp"
#include "dsp/fir_filter.hpp"
#include "dsp/ring_history.hpp"

namespace mute::adaptive {

/// Multi-reference filtered-x LMS — the paper's Section 6 future-work
/// item ("with multiple noise sources ... requiring either multiple
/// microphones, one for each noise channel").
///
/// Each reference channel k carries the forwarded waveform of one relay
/// (every channel with the same lookahead N) and owns a weight vector
/// w_k; the single anti-noise output is the sum of the per-channel filter
/// outputs, and one error microphone drives the joint NLMS update:
///
///   y(t)   = sum_k sum_i w_k[i] x_k(t + N - i)
///   w_k[i] -= mu * e(t) * u_k(t + N - i) / (sum_j ||u_j||^2 + kNlmsEpsilon)
///
/// With sources that are statistically independent, each channel's weights
/// converge toward the controller for "its" source even though the update
/// is joint — the cross terms average out.
class MultiFxlmsEngine {
 public:
  /// `channels` reference channels with the taps, `mu` and `leakage` of
  /// `options`, sharing one secondary-path estimate (there is one speaker
  /// and one error mic).
  MultiFxlmsEngine(std::vector<double> secondary_path_estimate,
                   const FxlmsOptions& options, std::size_t channels);

  std::size_t channel_count() const { return channels_.size(); }

  /// Feed the newest advanced sample of every reference (size must equal
  /// channel_count()).
  MUTE_RT_SAFE void push_references(std::span<const Sample> x_advanced);

  /// Anti-noise output for the current instant.
  MUTE_RT_SAFE Sample compute_antinoise() const;

  /// Joint NLMS update from the shared error microphone.
  MUTE_RT_SAFE void adapt(Sample error);

  /// push + compute in one call.
  MUTE_RT_SAFE Sample step_output(std::span<const Sample> x_advanced);

  const std::vector<double>& weights(std::size_t channel) const;

 private:
  struct Channel {
    std::vector<double> w;  // [noncausal | causal], newest-first
    mute::dsp::RingHistory<double> x_hist;
    mute::dsp::RingHistory<double> u_hist;
    mute::dsp::FirFilter sec_filter;
    WindowPower u_power;
  };

  double mu_;
  double leakage_;
  std::vector<Channel> channels_;
};

}  // namespace mute::adaptive
