#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_utils.hpp"
#include "common/rng.hpp"
#include "dsp/fir_design.hpp"
#include "dsp/resampler.hpp"
#include "dsp/signal_ops.hpp"
#include "dsp/spectral.hpp"

namespace mute::dsp {
namespace {

// Reference: the whole-record batch polyphase resampler (zero-stuff by L,
// Kaiser prototype with 24 taps per phase, keep every M-th sample).
// StreamingResampler must match it bit for bit, whole-record and in blocks.
Signal batch_resample(std::span<const Sample> in, std::size_t l,
                      std::size_t m) {
  if (l == 1 && m == 1) return Signal(in.begin(), in.end());
  std::size_t taps = 24 * l;
  if (taps % 2 == 0) ++taps;
  const double up_rate = static_cast<double>(l);
  const double cutoff = 0.5 / static_cast<double>(std::max(l, m));
  std::vector<double> prototype =
      design_lowpass(cutoff * up_rate, up_rate, taps, WindowType::kKaiser);
  for (double& c : prototype) c *= static_cast<double>(l);
  const std::size_t out_len = (in.size() * l) / m;
  Signal out(out_len, 0.0f);
  for (std::size_t j = 0; j < out_len; ++j) {
    const std::size_t up_index = j * m;
    const std::size_t phase = up_index % l;
    const std::size_t base = up_index / l;
    double acc = 0.0;
    for (std::size_t k = 0;; ++k) {
      const std::size_t coeff_index = phase + k * l;
      if (coeff_index >= prototype.size()) break;
      if (k > base) break;
      acc += prototype[coeff_index] * static_cast<double>(in[base - k]);
    }
    out[j] = static_cast<Sample>(acc);
  }
  return out;
}

Signal gaussian_record(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Signal x(n);
  for (auto& v : x) v = static_cast<Sample>(rng.gaussian(0.2));
  return x;
}

// Streams `x` through a fresh resampler in `block`-sample calls.
Signal stream_in_blocks(double from_rate, double to_rate,
                        std::span<const Sample> x, std::size_t block) {
  StreamingResampler rs(from_rate, to_rate);
  Signal out;
  for (std::size_t start = 0; start < x.size(); start += block) {
    const Signal y =
        rs.process(x.subspan(start, std::min(block, x.size() - start)));
    out.insert(out.end(), y.begin(), y.end());
  }
  return out;
}

void expect_bit_equal(const Signal& got, const Signal& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "sample " << i;
  }
}

TEST(StreamingResampler, UpsampleWholeRecordMatchesBatch) {
  const Signal x = gaussian_record(4000, 21);
  StreamingResampler rs(16000.0, 256000.0);
  expect_bit_equal(rs.process(x), batch_resample(x, 16, 1));
}

TEST(StreamingResampler, DownsampleInBlocksMatchesBatch) {
  const Signal x = gaussian_record(64000, 22);
  const Signal want = batch_resample(x, 1, 16);
  for (const std::size_t block : {1024u, 317u, 16384u}) {
    SCOPED_TRACE(block);
    expect_bit_equal(stream_in_blocks(256000.0, 16000.0, x, block), want);
  }
}

TEST(StreamingResampler, FortyEightKilohertzRatioMatchesBatch) {
  const Signal x = gaussian_record(4800, 23);
  const Signal want = batch_resample(x, 1, 3);
  expect_bit_equal(stream_in_blocks(48000.0, 16000.0, x, x.size()), want);
  expect_bit_equal(stream_in_blocks(48000.0, 16000.0, x, 317), want);
}

TEST(StreamingResampler, ResetRewindsToStreamStart) {
  const Signal x = gaussian_record(1600, 24);
  StreamingResampler rs(16000.0, 256000.0);
  const Signal first = rs.process(x);
  rs.reset();
  expect_bit_equal(rs.process(x), first);
}

TEST(StreamingResampler, IdentityRatioPassesThrough) {
  Rng rng(1);
  Signal x(100);
  for (auto& v : x) v = static_cast<Sample>(rng.gaussian());
  StreamingResampler rs(16000.0, 16000.0);
  const auto y = rs.process(x);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(StreamingResampler, UpsampleProducesExpectedLength) {
  Signal x(1000, 0.0f);
  StreamingResampler rs(16000.0, 256000.0);
  EXPECT_EQ(rs.process(x).size(), 16000u);
}

TEST(StreamingResampler, DownsampleProducesExpectedLength) {
  Signal x(16000, 0.0f);
  StreamingResampler rs(256000.0, 16000.0);
  EXPECT_EQ(rs.process(x).size(), 1000u);
}

TEST(StreamingResampler, TonePreservedThroughUpDown) {
  // 16 kHz -> 256 kHz -> 16 kHz round trip of a 1 kHz tone.
  const double fs = 16000.0;
  const std::size_t n = 8000;
  Signal x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<Sample>(
        0.5 * std::sin(kTwoPi * 1000.0 * static_cast<double>(i) / fs));
  }
  StreamingResampler up(16000.0, 256000.0), down(256000.0, 16000.0);
  const auto hi = up.process(x);
  const auto back = down.process(hi);
  ASSERT_EQ(back.size(), n);
  // Compare RMS (delay shifts phase; compare energy in steady state).
  const std::span<const Sample> mid_in(x.data() + 2000, 4000);
  const std::span<const Sample> mid_out(back.data() + 2000, 4000);
  EXPECT_NEAR(rms(mid_out), rms(mid_in), 0.02);
}

TEST(StreamingResampler, AntiAliasingSuppressesOutOfBand) {
  // Downsample 256k -> 16k with a 50 kHz tone present: must vanish.
  const double hi_fs = 256000.0;
  const std::size_t n = 64000;
  Signal x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<Sample>(
        std::sin(kTwoPi * 50000.0 * static_cast<double>(i) / hi_fs));
  }
  StreamingResampler down(256000.0, 16000.0);
  const auto y = down.process(x);
  EXPECT_LT(rms(std::span<const Sample>(y.data() + 500, y.size() - 500)), 0.02);
}

TEST(StreamingResampler, RationalRatioHelper) {
  Signal x(4410, 0.0f);
  StreamingResampler rs(44100.0, 16000.0);
  const auto y = rs.process(x);
  EXPECT_NEAR(static_cast<double>(y.size()), 1600.0, 2.0);
}

TEST(SignalOps, RmsOfKnownSignal) {
  Signal x = {1.0f, -1.0f, 1.0f, -1.0f};
  EXPECT_NEAR(rms(x), 1.0, 1e-7);
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

class StreamingResamplerRatioTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(StreamingResamplerRatioTest, ToneSurvivesRatio) {
  const auto [l, m] = GetParam();
  const double fs = 16000.0;
  const std::size_t n = 16000;
  Signal x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<Sample>(
        0.5 * std::sin(kTwoPi * 440.0 * static_cast<double>(i) / fs));
  }
  const double out_fs = fs * static_cast<double>(l) / static_cast<double>(m);
  StreamingResampler rs(fs, out_fs);
  const auto y = rs.process(x);
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
    Ratios, StreamingResamplerRatioTest,
    ::testing::Values(std::make_pair(2u, 1u), std::make_pair(1u, 2u),
                      std::make_pair(3u, 2u), std::make_pair(2u, 3u),
                      std::make_pair(16u, 1u), std::make_pair(5u, 4u)));

}  // namespace
}  // namespace mute::dsp
