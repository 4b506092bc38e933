#include "dsp/spectral.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/math_utils.hpp"
#include "common/rng.hpp"

namespace mute::dsp {
namespace {

constexpr double kFs = 16000.0;

Signal make_tone(double freq, double amp, std::size_t n) {
  Signal x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<Sample>(
        amp * std::sin(kTwoPi * freq * static_cast<double>(i) / kFs));
  }
  return x;
}

TEST(WelchPsd, TonePeaksAtToneFrequency) {
  const auto x = make_tone(1000.0, 0.5, 32000);
  const auto psd = welch_psd(x, kFs, 1024);
  // Find the max bin.
  std::size_t best = 0;
  for (std::size_t i = 1; i < psd.power.size(); ++i) {
    if (psd.power[i] > psd.power[best]) best = i;
  }
  EXPECT_NEAR(psd.freq_hz[best], 1000.0, kFs / 1024.0);
}

TEST(WelchPsd, WhiteNoiseIsFlat) {
  Rng rng(3);
  Signal x(64000);
  for (auto& v : x) v = static_cast<Sample>(rng.gaussian());
  const auto psd = welch_psd(x, kFs, 512);
  const double low = psd.band_power(500.0, 1500.0);
  const double high = psd.band_power(5000.0, 6000.0);
  EXPECT_NEAR(low / high, 1.0, 0.15);
}

TEST(WelchPsd, TotalPowerMatchesVariance) {
  Rng rng(5);
  Signal x(64000);
  const double sigma = 0.3;
  for (auto& v : x) v = static_cast<Sample>(rng.gaussian(sigma));
  const auto psd = welch_psd(x, kFs, 1024);
  // Integrate PSD over frequency: sum(power) * bin_width ~= variance.
  double total = 0.0;
  for (double p : psd.power) total += p;
  total *= kFs / 1024.0;
  EXPECT_NEAR(total, sigma * sigma, 0.1 * sigma * sigma);
}

TEST(WelchPsd, BandPowerSplitsTotal) {
  Rng rng(7);
  Signal x(32000);
  for (auto& v : x) v = static_cast<Sample>(rng.gaussian());
  const auto psd = welch_psd(x, kFs);
  const double all = psd.band_power(0.0, 8001.0);
  const double lower = psd.band_power(0.0, 4000.0);
  const double upper = psd.band_power(4000.0, 8001.0);
  EXPECT_NEAR(lower + upper, all, 1e-9);
}

TEST(WelchPsd, RejectsShortSignal) {
  Signal x(100);
  EXPECT_THROW(welch_psd(x, kFs, 1024), PreconditionError);
}

TEST(Stft, FrameCountAndSize) {
  Signal x(1000, 0.1f);
  const auto frames = stft_magnitude(x, 256, 128);
  EXPECT_EQ(frames.size(), (1000 - 256) / 128 + 1);
  for (const auto& f : frames) EXPECT_EQ(f.size(), 129u);
}

TEST(Stft, ToneAppearsInEveryFrame) {
  const auto x = make_tone(2000.0, 0.5, 4096);
  const auto frames = stft_magnitude(x, 256, 128);
  const std::size_t expected_bin = static_cast<std::size_t>(2000.0 * 256 / kFs);
  for (const auto& f : frames) {
    std::size_t best = 0;
    for (std::size_t k = 1; k < f.size(); ++k) {
      if (f[k] > f[best]) best = k;
    }
    EXPECT_NEAR(static_cast<double>(best), static_cast<double>(expected_bin), 1.0);
  }
}

TEST(PsdStruct, BandPowerCountsNyquistInBandEndingAtNyquist) {
  // A band ending exactly at fs/2 must include the Nyquist bin (the
  // SignatureExtractor last-band convention); interior edges stay
  // half-open so adjacent bands never double-count.
  Psd psd;
  psd.freq_hz = {0.0, 2000.0, 4000.0, 6000.0, 8000.0};
  psd.power = {1.0, 2.0, 4.0, 8.0, 16.0};
  EXPECT_DOUBLE_EQ(psd.band_power(0.0, 4000.0), 3.0);      // half-open interior
  EXPECT_DOUBLE_EQ(psd.band_power(4000.0, 8000.0), 28.0);  // closes at Nyquist
  EXPECT_DOUBLE_EQ(psd.band_power(0.0, 8000.0), 31.0);     // full grid
  EXPECT_DOUBLE_EQ(psd.band_power(8000.0, 8000.0), 16.0);  // degenerate top
}

TEST(WelchPsd, BandPowerPartitionCoversFullGridIncludingNyquist) {
  Rng rng(23);
  Signal x(32000);
  for (auto& v : x) v = static_cast<Sample>(rng.gaussian());
  const auto psd = welch_psd(x, kFs);
  double all = 0.0;
  for (double p : psd.power) all += p;
  // Adjacent [0,4k) + [4k,8k] must cover every bin exactly once now that
  // the top band closes at Nyquist.
  const double lower = psd.band_power(0.0, 4000.0);
  const double upper = psd.band_power(4000.0, 8000.0);
  EXPECT_NEAR(lower + upper, all, 1e-9 * all);
}

TEST(PsdStruct, PowerAtFindsNearestBin) {
  Psd psd;
  psd.freq_hz = {0.0, 100.0, 200.0};
  psd.power = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(psd.power_at(120.0), 2.0);
  EXPECT_DOUBLE_EQ(psd.power_at(500.0), 3.0);
}

}  // namespace
}  // namespace mute::dsp
