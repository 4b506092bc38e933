#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dsp/convolution.hpp"

namespace mute::acoustics {

/// An acoustic channel: an immutable FIR impulse response applied to a whole
/// signal (offline, FFT-accelerated). Instances represent the paper's h_nr
/// (noise -> reference mic), h_ne (noise -> error mic) and h_se (anti-noise
/// speaker -> error mic). Streaming plants wrap the impulse response in a
/// dsp::FirFilter.
class AcousticChannel {
 public:
  AcousticChannel(std::vector<double> impulse_response, std::string label);

  /// Offline: convolve a whole signal; output length == input length
  /// (causal "same" semantics so pipelines stay aligned).
  Signal apply(std::span<const Sample> in) const;

  const std::vector<double>& impulse_response() const { return ir_; }
  const std::string& label() const { return label_; }

  /// Total energy of the impulse response.
  double energy() const;

 private:
  std::vector<double> ir_;
  std::string label_;
};

/// Delay an impulse response by an integer number of samples, keeping
/// length (tail truncated). Used to model converter latencies lumped into
/// a path.
std::vector<double> shift_ir(const std::vector<double>& ir,
                             std::size_t samples);

/// Cascade (convolve) two impulse responses, truncated to `max_len`.
std::vector<double> cascade_ir(const std::vector<double>& a,
                               const std::vector<double>& b,
                               std::size_t max_len);

}  // namespace mute::acoustics
