#include <cmath>

#include <gtest/gtest.h>

#include "common/math_utils.hpp"
#include "common/rng.hpp"
#include "dsp/fir_design.hpp"
#include "dsp/fir_filter.hpp"

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
