#include "dsp/resampler.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/error.hpp"
#include "dsp/fir_design.hpp"

namespace mute::dsp {

namespace {

// Prototype taps per polyphase branch (the anti-alias filter's quality).
constexpr std::size_t kTapsPerPhase = 24;

}  // namespace

std::pair<std::size_t, std::size_t> rational_resample_ratio(double from_rate,
                                                            double to_rate) {
  ensure(from_rate > 0 && to_rate > 0, "rates must be positive");
  const double ratio = to_rate / from_rate;
  std::size_t best_l = 1, best_m = 1;
  double best_err = std::abs(ratio - 1.0);
  for (std::size_t m = 1; m <= 512; ++m) {
    const double l_real = ratio * static_cast<double>(m);
    const auto l = static_cast<std::size_t>(std::lround(l_real));
    if (l == 0) continue;
    const double err =
        std::abs(ratio - static_cast<double>(l) / static_cast<double>(m));
    if (err < best_err - 1e-15) {
      best_err = err;
      best_l = l;
      best_m = m;
      if (err < 1e-12) break;
    }
  }
  return {best_l, best_m};
}

StreamingResampler::StreamingResampler(double from_rate, double to_rate) {
  std::tie(l_, m_) = rational_resample_ratio(from_rate, to_rate);
  if (l_ == 1 && m_ == 1) return;  // identity; no filter needed
  // Prototype lowpass at the upsampled rate fs*L, cutoff at
  // min(fs/2, fs*L/(2M)) scaled into the upsampled domain.
  std::size_t taps = kTapsPerPhase * l_;
  if (taps % 2 == 0) ++taps;
  const double up_rate = static_cast<double>(l_);  // normalized fs = 1
  const double cutoff = 0.5 / static_cast<double>(std::max(l_, m_));
  prototype_ = design_lowpass(cutoff * up_rate, up_rate,
                              taps, WindowType::kKaiser);
  // Upsampling inserts zeros; compensate the L-fold amplitude loss.
  for (double& c : prototype_) c *= static_cast<double>(l_);
  // Worst-case reach-back of the first output of a block: the output index
  // floor can land up to M-1 inputs before the block boundary, and each
  // output looks back ceil(prototype/L) further.
  const std::size_t span = m_ + prototype_.size() / l_ + 2;
  tail_.assign(span, 0.0f);
}

Signal StreamingResampler::process(std::span<const Sample> in) {
  if (l_ == 1 && m_ == 1) {
    in_count_ += in.size();
    out_count_ += in.size();
    return Signal(in.begin(), in.end());
  }
  const std::uint64_t total_in = in_count_ + in.size();
  const std::uint64_t total_out = (total_in * l_) / m_;
  Signal out(static_cast<std::size_t>(total_out - out_count_), 0.0f);
  // Linearize [carried tail | new block]; work_[0] holds the input with
  // global index base0.
  work_.resize(tail_len_ + in.size());
  std::copy(tail_.begin(),
            tail_.begin() + static_cast<std::ptrdiff_t>(tail_len_),
            work_.begin());
  std::copy(in.begin(), in.end(),
            work_.begin() + static_cast<std::ptrdiff_t>(tail_len_));
  const std::uint64_t base0 = in_count_ - tail_len_;
  for (std::uint64_t j = out_count_; j < total_out; ++j) {
    const std::uint64_t up_index = j * m_;
    const auto phase = static_cast<std::size_t>(up_index % l_);
    const std::uint64_t base = up_index / l_;  // newest global input index
    double acc = 0.0;
    // Coefficient k of this phase multiplies global input (base - k).
    for (std::uint64_t k = 0;; ++k) {
      const std::size_t coeff_index =
          phase + static_cast<std::size_t>(k) * l_;
      if (coeff_index >= prototype_.size()) break;
      if (k > base) break;
      acc += prototype_[coeff_index] *
             static_cast<double>(
                 work_[static_cast<std::size_t>(base - k - base0)]);
    }
    out[static_cast<std::size_t>(j - out_count_)] = static_cast<Sample>(acc);
  }
  in_count_ = total_in;
  out_count_ = total_out;
  const std::size_t keep = std::min(work_.size(), tail_.size());
  std::copy(work_.end() - static_cast<std::ptrdiff_t>(keep), work_.end(),
            tail_.begin());
  tail_len_ = keep;
  return out;
}

void StreamingResampler::reset() {
  std::fill(tail_.begin(), tail_.end(), 0.0f);
  tail_len_ = 0;
  in_count_ = 0;
  out_count_ = 0;
  work_.clear();
}

}  // namespace mute::dsp
