#include "adaptive/fxlms_multi.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "dsp/kernels.hpp"

namespace mute::adaptive {

MultiFxlmsEngine::MultiFxlmsEngine(std::vector<double> secondary_path_estimate,
                                   const FxlmsOptions& options,
                                   std::size_t channels)
    : mu_(options.mu), leakage_(options.leakage) {
  ensure(!secondary_path_estimate.empty(), "secondary path must be non-empty");
  ensure(channels >= 1, "need at least one reference channel");
  ensure(options.causal_taps >= 1, "need at least one causal tap");
  ensure(mu_ > 0, "mu must be positive");
  const std::size_t taps = options.noncausal_taps + options.causal_taps;
  channels_.reserve(channels);
  for (std::size_t k = 0; k < channels; ++k) {
    channels_.push_back({std::vector<double>(taps, 0.0),
                         mute::dsp::RingHistory<double>(taps),
                         mute::dsp::RingHistory<double>(taps),
                         mute::dsp::FirFilter(secondary_path_estimate),
                         {}});
  }
}

void MultiFxlmsEngine::push_references(std::span<const Sample> x_advanced) {
  ensure(x_advanced.size() == channels_.size(),
         "one sample per reference channel required");
  for (std::size_t k = 0; k < channels_.size(); ++k) {
    auto& ch = channels_[k];
    const Sample u_new = ch.sec_filter.process(x_advanced[k]);
    const double u_old = ch.u_hist.oldest();
    ch.x_hist.push(static_cast<double>(x_advanced[k]));
    ch.u_hist.push(static_cast<double>(u_new));
    ch.u_power.push(static_cast<double>(u_new), u_old, ch.u_hist.data(),
                    ch.w.size());
  }
}

Sample MultiFxlmsEngine::compute_antinoise() const {
  double y = 0.0;
  for (const auto& ch : channels_) {
    y += dsp::kernels::dot(ch.w.data(), ch.x_hist.data(), ch.w.size());
  }
  return static_cast<Sample>(y);
}

void MultiFxlmsEngine::adapt(Sample error) {
  double total_power = 0.0;
  for (const auto& ch : channels_) {
    total_power += std::max(ch.u_power.value(), 0.0);
  }
  const double g =
      mu_ * static_cast<double>(error) / (total_power + kNlmsEpsilon);
  const double keep = 1.0 - mu_ * leakage_;
  for (auto& ch : channels_) {
    dsp::kernels::axpy_leaky_norm(ch.w.data(), ch.u_hist.data(), keep, -g,
                                  ch.w.size());
  }
}

Sample MultiFxlmsEngine::step_output(std::span<const Sample> x_advanced) {
  push_references(x_advanced);
  return compute_antinoise();
}

const std::vector<double>& MultiFxlmsEngine::weights(
    std::size_t channel) const {
  ensure(channel < channels_.size(), "channel index out of range");
  return channels_[channel].w;
}

}  // namespace mute::adaptive
