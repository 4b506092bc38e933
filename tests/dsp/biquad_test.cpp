#include "dsp/biquad.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/math_utils.hpp"

namespace mute::dsp {
namespace {

constexpr double kFs = 16000.0;

TEST(Biquad, LowpassPassesDcRejectsNyquist) {
  auto f = Biquad::lowpass(1000.0, 0.707, kFs);
  EXPECT_NEAR(std::abs(f.response(10.0, kFs)), 1.0, 0.01);
  EXPECT_LT(std::abs(f.response(7900.0, kFs)), 0.02);
}

TEST(Biquad, HighpassRejectsDcPassesHigh) {
  auto f = Biquad::highpass(1000.0, 0.707, kFs);
  EXPECT_LT(std::abs(f.response(20.0, kFs)), 0.001);
  EXPECT_NEAR(std::abs(f.response(7000.0, kFs)), 1.0, 0.02);
}

TEST(Biquad, ButterworthMinus3dbAtCutoff) {
  auto f = Biquad::lowpass(2000.0, 0.7071, kFs);
  EXPECT_NEAR(amplitude_to_db(std::abs(f.response(2000.0, kFs))), -3.0, 0.1);
}

TEST(Biquad, BandpassPeaksAtCenter) {
  auto f = Biquad::bandpass(1000.0, 5.0, kFs);
  const double at_center = std::abs(f.response(1000.0, kFs));
  EXPECT_NEAR(at_center, 1.0, 0.02);
  EXPECT_LT(std::abs(f.response(250.0, kFs)), 0.3 * at_center);
  EXPECT_LT(std::abs(f.response(4000.0, kFs)), 0.3 * at_center);
}

TEST(Biquad, PeakingBoostsByGain) {
  auto f = Biquad::peaking(1000.0, 2.0, 6.0, kFs);
  EXPECT_NEAR(amplitude_to_db(std::abs(f.response(1000.0, kFs))), 6.0, 0.1);
  EXPECT_NEAR(std::abs(f.response(60.0, kFs)), 1.0, 0.03);
}

TEST(Biquad, ShelvesReachPlateauGain) {
  auto hi = Biquad::high_shelf(2000.0, 0.707, -9.0, kFs);
  EXPECT_NEAR(amplitude_to_db(std::abs(hi.response(7500.0, kFs))), -9.0, 0.5);
  EXPECT_NEAR(amplitude_to_db(std::abs(hi.response(50.0, kFs))), 0.0, 0.3);
}

TEST(Biquad, StreamingMatchesResponseForSine) {
  auto f = Biquad::lowpass(1500.0, 0.707, kFs);
  const double freq = 800.0;
  const double expected_gain = std::abs(f.response(freq, kFs));
  // Run a sine through and measure steady-state amplitude.
  double peak = 0.0;
  for (int i = 0; i < 4000; ++i) {
    const double t = i / kFs;
    const Sample y = f.process(static_cast<Sample>(std::sin(kTwoPi * freq * t)));
    if (i > 2000) peak = std::max(peak, std::abs(static_cast<double>(y)));
  }
  EXPECT_NEAR(peak, expected_gain, 0.02);
}

TEST(Biquad, ResetClearsState) {
  auto f = Biquad::lowpass(1000.0, 0.707, kFs);
  f.process(1.0f);
  f.process(1.0f);
  f.reset();
  // After reset an impulse gives exactly b0.
  const auto c = f.coefficients();
  EXPECT_NEAR(f.process(1.0f), c[0], 1e-7);
}

TEST(Biquad, RejectsInvalidParameters) {
  EXPECT_THROW(Biquad::lowpass(-5.0, 0.7, kFs), PreconditionError);
  EXPECT_THROW(Biquad::lowpass(9000.0, 0.7, kFs), PreconditionError);
  EXPECT_THROW(Biquad::lowpass(1000.0, 0.0, kFs), PreconditionError);
}

TEST(BiquadCascade, ResponseIsProductOfSections) {
  BiquadCascade c;
  c.push_section(Biquad::lowpass(2000.0, 0.54, kFs));
  c.push_section(Biquad::lowpass(2000.0, 1.31, kFs));
  const auto r1 = Biquad::lowpass(2000.0, 0.54, kFs).response(1000.0, kFs);
  const auto r2 = Biquad::lowpass(2000.0, 1.31, kFs).response(1000.0, kFs);
  EXPECT_NEAR(std::abs(c.response(1000.0, kFs) - r1 * r2), 0.0, 1e-12);
}

TEST(BiquadCascade, EmptyCascadeIsIdentity) {
  BiquadCascade c;
  EXPECT_FLOAT_EQ(c.process(0.75f), 0.75f);
  EXPECT_NEAR(std::abs(c.response(1234.0, kFs)), 1.0, 1e-12);
}

TEST(BiquadCascade, FourthOrderRollsOffTwiceAsFast) {
  BiquadCascade c;
  c.push_section(Biquad::lowpass(1000.0, 0.5412, kFs));
  c.push_section(Biquad::lowpass(1000.0, 1.3066, kFs));
  const double g2k = amplitude_to_db(std::abs(c.response(2000.0, kFs)));
  const double g4k = amplitude_to_db(std::abs(c.response(4000.0, kFs)));
  // 4th-order Butterworth: -24 dB/octave asymptotically; the 2k->4k
  // octave is still in the transition knee, so allow it to be steeper.
  EXPECT_LT(g4k - g2k, -20.0);
  EXPECT_GT(g4k - g2k, -34.0);
}

// Stability: impulse response of every design decays.
class BiquadStabilityTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(BiquadStabilityTest, ImpulseResponseDecays) {
  const auto [freq, q] = GetParam();
  for (auto f : {Biquad::lowpass(freq, q, kFs), Biquad::highpass(freq, q, kFs),
                 Biquad::bandpass(freq, q, kFs)}) {
    double tail = 0.0;
    Sample y = f.process(1.0f);
    (void)y;
    for (int i = 0; i < 20000; ++i) {
      const double v = std::abs(static_cast<double>(f.process(0.0f)));
      if (i > 18000) tail = std::max(tail, v);
    }
    EXPECT_LT(tail, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, BiquadStabilityTest,
    ::testing::Values(std::make_pair(100.0, 0.5), std::make_pair(100.0, 10.0),
                      std::make_pair(1000.0, 0.707),
                      std::make_pair(7000.0, 2.0),
                      std::make_pair(7900.0, 0.707)));

}  // namespace
}  // namespace mute::dsp
