#include <cmath>

#include <gtest/gtest.h>

#include "common/math_utils.hpp"
#include "common/rng.hpp"
#include "dsp/resampler.hpp"
#include "dsp/signal_ops.hpp"
#include "dsp/spectral.hpp"

namespace mute::dsp {
namespace {

TEST(Resampler, IdentityRatioPassesThrough) {
  Rng rng(1);
  Signal x(100);
  for (auto& v : x) v = static_cast<Sample>(rng.gaussian());
  Resampler rs(1, 1);
  const auto y = rs.process(x);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Resampler, UpsampleProducesExpectedLength) {
  Signal x(1000, 0.0f);
  Resampler rs(16, 1);
  EXPECT_EQ(rs.process(x).size(), 16000u);
}

TEST(Resampler, DownsampleProducesExpectedLength) {
  Signal x(16000, 0.0f);
  Resampler rs(1, 16);
  EXPECT_EQ(rs.process(x).size(), 1000u);
}

TEST(Resampler, TonePreservedThroughUpDown) {
  // 16 kHz -> 256 kHz -> 16 kHz round trip of a 1 kHz tone.
  const double fs = 16000.0;
  const std::size_t n = 8000;
  Signal x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<Sample>(
        0.5 * std::sin(kTwoPi * 1000.0 * static_cast<double>(i) / fs));
  }
  Resampler up(16, 1), down(1, 16);
  const auto hi = up.process(x);
  const auto back = down.process(hi);
  ASSERT_EQ(back.size(), n);
  // Compare RMS (delay shifts phase; compare energy in steady state).
  const std::span<const Sample> mid_in(x.data() + 2000, 4000);
  const std::span<const Sample> mid_out(back.data() + 2000, 4000);
  EXPECT_NEAR(rms(mid_out), rms(mid_in), 0.02);
}

TEST(Resampler, AntiAliasingSuppressesOutOfBand) {
  // Downsample 256k -> 16k with a 50 kHz tone present: must vanish.
  const double hi_fs = 256000.0;
  const std::size_t n = 64000;
  Signal x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<Sample>(
        std::sin(kTwoPi * 50000.0 * static_cast<double>(i) / hi_fs));
  }
  Resampler down(1, 16);
  const auto y = down.process(x);
  EXPECT_LT(rms(std::span<const Sample>(y.data() + 500, y.size() - 500)), 0.02);
}

TEST(Resampler, RationalRatioHelper) {
  Signal x(4410, 0.0f);
  const auto y = resample(x, 44100.0, 16000.0);
  EXPECT_NEAR(static_cast<double>(y.size()), 1600.0, 2.0);
}

TEST(SignalOps, RmsOfKnownSignal) {
  Signal x = {1.0f, -1.0f, 1.0f, -1.0f};
  EXPECT_NEAR(rms(x), 1.0, 1e-7);
  EXPECT_NEAR(rms_db(x), 0.0, 1e-6);
}

TEST(SignalOps, RmsOfEmptyIsZero) {
  Signal x;
  EXPECT_DOUBLE_EQ(rms(x), 0.0);
}

TEST(SignalOps, PeakFindsLargestMagnitude) {
  Signal x = {0.1f, -0.9f, 0.5f};
  EXPECT_NEAR(peak(x), 0.9, 1e-7);
}

TEST(SignalOps, NormalizeRmsHitsTarget) {
  Rng rng(9);
  Signal x(1000);
  for (auto& v : x) v = static_cast<Sample>(rng.gaussian(3.0));
  normalize_rms(x, 0.25);
  EXPECT_NEAR(rms(x), 0.25, 1e-4);
}

TEST(SignalOps, NormalizeSilenceIsNoOp) {
  Signal x(10, 0.0f);
  normalize_rms(x, 1.0);
  for (Sample v : x) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(SignalOps, MixAddsWithGain) {
  Signal a = {1.0f, 2.0f, 3.0f};
  Signal b = {1.0f, 1.0f};
  const auto y = mix(a, b, 0.5);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_FLOAT_EQ(y[0], 1.5f);
  EXPECT_FLOAT_EQ(y[1], 2.5f);
  EXPECT_FLOAT_EQ(y[2], 3.0f);
}

TEST(SignalOps, SubtractRequiresEqualLengths) {
  Signal a(4, 1.0f), b(3, 1.0f);
  EXPECT_THROW(subtract(a, b), PreconditionError);
}

TEST(SignalOps, DelaySignalPrependsZeros) {
  Signal x = {1.0f, 2.0f};
  const auto y = delay_signal(x, 3);
  ASSERT_EQ(y.size(), 5u);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[3], 1.0f);
  EXPECT_FLOAT_EQ(y[4], 2.0f);
}

TEST(SignalOps, RemoveDcCentersSignal) {
  Signal x = {1.0f, 2.0f, 3.0f, 4.0f};
  remove_dc(x);
  EXPECT_NEAR(mean(x), 0.0, 1e-7);
}

class ResamplerRatioTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(ResamplerRatioTest, ToneSurvivesRatio) {
  const auto [l, m] = GetParam();
  const double fs = 16000.0;
  const std::size_t n = 16000;
  Signal x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<Sample>(
        0.5 * std::sin(kTwoPi * 440.0 * static_cast<double>(i) / fs));
  }
  Resampler rs(l, m);
  const auto y = rs.process(x);
  const double out_fs = fs * static_cast<double>(l) / static_cast<double>(m);
  ASSERT_GT(y.size(), 2048u);
  const auto psd = welch_psd(
      std::span<const Sample>(y.data() + y.size() / 4, y.size() / 2), out_fs,
      1024);
  // Tone still at 440 Hz in the new rate.
  std::size_t best = 0;
  for (std::size_t i = 1; i < psd.power.size(); ++i) {
    if (psd.power[i] > psd.power[best]) best = i;
  }
  EXPECT_NEAR(psd.freq_hz[best], 440.0, out_fs / 1024.0 + 10.0);
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, ResamplerRatioTest,
    ::testing::Values(std::make_pair(2u, 1u), std::make_pair(1u, 2u),
                      std::make_pair(3u, 2u), std::make_pair(2u, 3u),
                      std::make_pair(16u, 1u), std::make_pair(5u, 4u)));

}  // namespace
}  // namespace mute::dsp
