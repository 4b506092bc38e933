#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "audio/generators.hpp"
#include "common/contracts.hpp"
#include "common/math_utils.hpp"
#include "common/rng.hpp"
#include "dsp/convolution.hpp"
#include "dsp/fir_design.hpp"
#include "dsp/fir_filter.hpp"
#include "dsp/kernels.hpp"

namespace mute::dsp {
namespace {

TEST(FirDesign, LowpassHasUnitDcGain) {
  const auto h = design_lowpass(1000.0, 16000.0, 63);
  double dc = 0.0;
  for (double v : h) dc += v;
  EXPECT_NEAR(dc, 1.0, 1e-12);
}

TEST(FirDesign, LowpassPassesPassbandRejectsStopband) {
  const auto h = design_lowpass(1000.0, 16000.0, 127);
  EXPECT_NEAR(std::abs(fir_response(h, 200.0, 16000.0)), 1.0, 0.01);
  EXPECT_NEAR(std::abs(fir_response(h, 1000.0, 16000.0)), 0.5, 0.05);
  EXPECT_LT(std::abs(fir_response(h, 3000.0, 16000.0)), 0.01);
}

TEST(FirDesign, RejectsInvalidArguments) {
  EXPECT_THROW(design_lowpass(0.0, 16000.0, 63), PreconditionError);
  EXPECT_THROW(design_lowpass(9000.0, 16000.0, 63), PreconditionError);
  EXPECT_THROW(design_lowpass(1000.0, 16000.0, 64), PreconditionError);
}

TEST(FirDesign, FromMagnitudeApproximatesTarget) {
  const std::vector<double> freq = {0.0, 1000.0, 2000.0, 4000.0, 8000.0};
  const std::vector<double> mag = {1.0, 1.0, 0.25, 0.25, 0.25};
  const auto h = design_from_magnitude(freq, mag, 16000.0, 255);
  EXPECT_NEAR(std::abs(fir_response(h, 500.0, 16000.0)), 1.0, 0.08);
  EXPECT_NEAR(std::abs(fir_response(h, 3000.0, 16000.0)), 0.25, 0.08);
}

TEST(FirDesign, FractionalDelayDelaysSine) {
  const double fs = 16000.0;
  const double delay = 5.37;
  const auto h = design_fractional_delay(delay, 31);
  // Phase at 1 kHz should equal -2*pi*f*delay/fs.
  const auto resp = fir_response(h, 1000.0, fs);
  EXPECT_NEAR(std::abs(resp), 1.0, 0.05);
  const double expected_phase = -kTwoPi * 1000.0 * delay / fs;
  EXPECT_NEAR(wrap_phase(std::arg(resp) - expected_phase), 0.0, 0.05);
}

TEST(FirDesign, FractionalDelayIntegerCaseIsExact) {
  const auto h = design_fractional_delay(4.0, 31);
  EXPECT_NEAR(h[4], 1.0, 1e-9);
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (i != 4) {
      EXPECT_NEAR(h[i], 0.0, 1e-9);
    }
  }
}

TEST(FirFilter, ImpulseResponseMatchesCoefficients) {
  FirFilter f({0.5, -0.25, 0.125});
  EXPECT_FLOAT_EQ(f.process(1.0f), 0.5f);
  EXPECT_FLOAT_EQ(f.process(0.0f), -0.25f);
  EXPECT_FLOAT_EQ(f.process(0.0f), 0.125f);
  EXPECT_FLOAT_EQ(f.process(0.0f), 0.0f);
}

TEST(FirFilter, MatchesDirectConvolution) {
  Rng rng(3);
  std::vector<double> h(16);
  for (auto& v : h) v = rng.gaussian();
  Signal x(64);
  for (auto& v : x) v = static_cast<Sample>(rng.gaussian());
  FirFilter f(h);
  const auto y = f.filter(x);
  for (std::size_t n = 0; n < x.size(); ++n) {
    double acc = 0.0;
    for (std::size_t k = 0; k < h.size() && k <= n; ++k) {
      acc += h[k] * static_cast<double>(x[n - k]);
    }
    EXPECT_NEAR(y[n], acc, 1e-5);
  }
}

TEST(FirFilter, ResetClearsHistory) {
  FirFilter f({1.0, 1.0});
  f.process(5.0f);
  f.reset();
  EXPECT_FLOAT_EQ(f.process(0.0f), 0.0f);
}

TEST(FirFilter, RejectsEmptyCoefficients) {
  EXPECT_THROW(FirFilter({}), PreconditionError);
}

// --- Partitioned tail (taps > FirFilter::kHeadTaps) ---------------------

constexpr std::size_t kBlock = FirFilter::kTailBlock;

// A decaying random impulse response, shaped like the simulated plants.
std::vector<double> decaying_ir(std::size_t taps, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> h(taps);
  for (std::size_t k = 0; k < taps; ++k) {
    h[k] = rng.gaussian() * std::exp(-static_cast<double>(k) / 600.0);
  }
  return h;
}

Signal white(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Signal x(n);
  for (auto& v : x) v = static_cast<Sample>(rng.gaussian(0.3));
  return x;
}

Signal pink(std::size_t n, std::uint64_t seed) {
  audio::PinkNoiseSource source(0.3, seed);
  Signal x(n);
  source.render(x);
  return x;
}

Signal run_scalar(FirFilter& f, std::span<const Sample> x) {
  Signal y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = f.process(x[i]);
  return y;
}

class FirImpulseTest : public ::testing::TestWithParam<std::size_t> {};

// Every tap lands at its own lag, on both sides of the head/tail split and
// of each partition edge, with silence after the last tap; the run spans at
// least three tail blocks past the end of the response.
TEST_P(FirImpulseTest, ImpulseResponseEqualsCoefficients) {
  const std::size_t taps = GetParam();
  const auto h = decaying_ir(taps, 40 + taps);
  FirFilter f(h);
  const std::size_t n = taps + 3 * kBlock + 17;
  for (std::size_t t = 0; t < n; ++t) {
    const Sample y = f.process(t == 0 ? 1.0f : 0.0f);
    const double want = t < taps ? h[t] : 0.0;
    if (taps <= FirFilter::kHeadTaps) {
      ASSERT_EQ(y, static_cast<Sample>(want)) << "taps=" << taps << " t=" << t;
    } else {
      // Float rounding of the tap plus FFT noise far below it.
      ASSERT_NEAR(y, want, 1e-12 + 1e-7 * std::abs(want))
          << "taps=" << taps << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TapCounts, FirImpulseTest,
                         ::testing::Values(1, 255, 256, 257, 383, 384, 385,
                                           1024, 2078));

// The streaming output equals the double-precision linear convolution
// (cast once to float) to FFT rounding, for white and for pink input.
TEST(FirFilterPartitioned, MatchesDirectConvolutionOnWhiteAndPinkInput) {
  const std::size_t n = 20000;
  for (const std::size_t taps : {385UL, 2078UL}) {
    const auto h = decaying_ir(taps, 7);
    for (const Signal& x : {white(n, 11), pink(n, 12)}) {
      FirFilter f(h);
      const Signal y = run_scalar(f, x);
      const Signal ref = convolve(x, h);
      double energy = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        energy += static_cast<double>(ref[i]) * static_cast<double>(ref[i]);
      }
      const double tol = 1e-6 * std::sqrt(energy / static_cast<double>(n));
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(y[i], ref[i], tol) << "taps=" << taps << " i=" << i;
      }
    }
  }
}

// Filters that fit in the head keep the direct form bit for bit: the output
// is kernels::dot over the newest-first input window, cast to float.
TEST(FirFilterPartitioned, ShortFiltersAreTheDirectDot) {
  for (const std::size_t taps : {1UL, 7UL, 64UL, 255UL, 256UL}) {
    const auto h = decaying_ir(taps, 90 + taps);
    FirFilter f(h);
    std::vector<double> window(taps, 0.0);  // newest first
    const Signal x = white(3 * taps + 50, taps);
    for (std::size_t i = 0; i < x.size(); ++i) {
      std::copy_backward(window.begin(), window.end() - 1, window.end());
      window[0] = static_cast<double>(x[i]);
      ASSERT_EQ(f.process(x[i]),
                static_cast<Sample>(kernels::dot(h.data(), window.data(), taps)))
          << "taps=" << taps << " i=" << i;
    }
  }
}

// Calls to process(span, span) whose sizes do not divide the tail block cut
// across its edges at ever-changing offsets; the output stays the linear
// convolution on every sample, the ones either side of each edge included.
TEST(FirFilterPartitioned, BlockBoundariesAreSeamless) {
  const auto h = decaying_ir(2078, 13);
  const Signal x = white(12 * kBlock, 14);
  const Signal ref = convolve(x, h);
  FirFilter f(h);
  Signal y(x.size());
  std::size_t pos = 0;
  for (std::size_t call = 0; pos < x.size(); ++call) {
    const std::size_t len =
        std::min<std::size_t>((std::size_t{37} * call) % 301 + 1, x.size() - pos);
    f.process(std::span<const Sample>(x.data() + pos, len),
              std::span<Sample>(y.data() + pos, len));
    pos += len;
  }
  double energy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    energy += static_cast<double>(ref[i]) * static_cast<double>(ref[i]);
  }
  const double tol = 1e-6 * std::sqrt(energy / static_cast<double>(x.size()));
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(y[i], ref[i], tol) << "i=" << i << " offset in block=" << i % kBlock;
  }
}

TEST(FirFilterPartitioned, ResetMidBlockRestoresInitialOutput) {
  const auto h = decaying_ir(2078, 5);
  const Signal x = white(3000, 8);
  FirFilter fresh(h);
  const Signal want = run_scalar(fresh, x);
  FirFilter f(h);
  (void)run_scalar(f, std::span<const Sample>(x.data(), 1000));
  ASSERT_NE(1000 % kBlock, 0U);  // the reset lands mid-block
  f.reset();
  EXPECT_EQ(run_scalar(f, x), want);
}

TEST(FirFilterPartitioned, SteadyStateIsAllocationFree) {
  FirFilter f(decaying_ir(2078, 6));
  const Signal x = white(3 * kBlock, 9);
  (void)f.process(0.0f);  // first-touch outside the guard
  RtAllocationGuard guard(RtAllocationGuard::Mode::kCount, "fir-partitioned");
  for (const Sample v : x) (void)f.process(v);  // crosses >= 2 tail blocks
  if (RtAllocationGuard::interposition_enabled()) {
    EXPECT_EQ(guard.allocations_since_entry(), 0U);
  }
}

// Linear-phase property: symmetric designs have constant group delay.
class FirLinearPhaseTest : public ::testing::TestWithParam<double> {};

TEST_P(FirLinearPhaseTest, LowpassHasConstantGroupDelay) {
  const double fs = 16000.0;
  const std::size_t taps = 101;
  const auto h = design_lowpass(GetParam(), fs, taps);
  const double expected = (taps - 1) / 2.0;
  // Group delay from phase difference between nearby passband freqs.
  for (double f : {100.0, 300.0, GetParam() * 0.5}) {
    const double df = 10.0;
    const double p1 = std::arg(fir_response(h, f, fs));
    const double p2 = std::arg(fir_response(h, f + df, fs));
    const double gd = -wrap_phase(p2 - p1) / (kTwoPi * df / fs);
    EXPECT_NEAR(gd, expected, 0.1) << "at " << f << " Hz";
  }
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, FirLinearPhaseTest,
                         ::testing::Values(1000.0, 2000.0, 4000.0));

}  // namespace
}  // namespace mute::dsp
