#include "dsp/spectral.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "dsp/fft.hpp"
#include "dsp/kernels.hpp"

namespace mute::dsp {

namespace {

struct Segmenter {
  std::size_t segment;
  std::size_t hop;
  std::size_t count;  // number of segments
};

Segmenter make_segmenter(std::size_t n, std::size_t segment) {
  ensure(is_pow2(segment), "segment must be a power of two");
  ensure(n >= segment, "signal shorter than one segment");
  const std::size_t hop = segment / 2;
  return {segment, hop, (n - segment) / hop + 1};
}

}  // namespace

double Psd::band_power(double low_hz, double high_hz) const {
  ensure(low_hz <= high_hz, "band must satisfy low <= high");
  // Bands are half-open [low, high) except at the top of the one-sided
  // grid: the Nyquist bin belongs to a band whose upper edge reaches it
  // (SignatureExtractor convention — the last band closes at Nyquist).
  // Plain [low, high) would silently drop the Nyquist bin for a band
  // ending exactly at fs/2, and no later band can ever reclaim it.
  double total = 0.0;
  for (std::size_t i = 0; i < freq_hz.size(); ++i) {
    const bool top_bin = (i + 1 == freq_hz.size());
    if (freq_hz[i] >= low_hz &&
        (freq_hz[i] < high_hz || (top_bin && freq_hz[i] <= high_hz))) {
      total += power[i];
    }
  }
  return total;
}

double Psd::power_at(double freq) const {
  ensure(!freq_hz.empty(), "empty PSD");
  std::size_t best = 0;
  double best_d = std::abs(freq_hz[0] - freq);
  for (std::size_t i = 1; i < freq_hz.size(); ++i) {
    const double d = std::abs(freq_hz[i] - freq);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return power[best];
}

Psd welch_psd(std::span<const Sample> x, double sample_rate,
              std::size_t segment, WindowType window) {
  const auto seg = make_segmenter(x.size(), segment);
  const auto w = make_window(window, segment);
  const double wpow = window_power(w);
  const std::size_t half = segment / 2;

  Psd out;
  out.sample_rate = sample_rate;
  out.freq_hz.resize(half + 1);
  out.power.assign(half + 1, 0.0);
  for (std::size_t k = 0; k <= half; ++k) {
    out.freq_hz[k] = bin_frequency(k, segment, sample_rate);
  }

  ComplexSignal buf(segment);
  for (std::size_t s = 0; s < seg.count; ++s) {
    const std::size_t off = s * seg.hop;
    kernels::window_into_complex(reinterpret_cast<double*>(buf.data()),
                                 w.data(), x.data() + off, segment);
    fft_inplace(buf);
    kernels::magsq_accumulate(out.power.data(),
                              reinterpret_cast<const double*>(buf.data()),
                              half + 1);
  }
  // One-sided doubling of interior bins folded into the final scaling pass
  // (mathematically identical to doubling per segment).
  const double norm =
      1.0 / (static_cast<double>(seg.count) * wpow * sample_rate);
  for (std::size_t k = 0; k <= half; ++k) {
    out.power[k] *= (k == 0 || k == half) ? norm : 2.0 * norm;
  }
  return out;
}

std::vector<std::vector<double>> stft_magnitude(std::span<const Sample> x,
                                                std::size_t frame,
                                                std::size_t hop,
                                                WindowType window) {
  ensure(is_pow2(frame), "frame must be a power of two");
  ensure(hop >= 1, "hop must be >= 1");
  std::vector<std::vector<double>> frames;
  if (x.size() < frame) return frames;
  const auto w = make_window(window, frame);
  const std::size_t half = frame / 2;
  ComplexSignal buf(frame);
  for (std::size_t off = 0; off + frame <= x.size(); off += hop) {
    kernels::window_into_complex(reinterpret_cast<double*>(buf.data()),
                                 w.data(), x.data() + off, frame);
    fft_inplace(buf);
    std::vector<double> mag(half + 1);
    for (std::size_t k = 0; k <= half; ++k) mag[k] = std::abs(buf[k]);
    frames.push_back(std::move(mag));
  }
  return frames;
}

}  // namespace mute::dsp
