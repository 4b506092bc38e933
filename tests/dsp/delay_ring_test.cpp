#include <cmath>

#include <gtest/gtest.h>

#include "common/math_utils.hpp"
#include "common/rng.hpp"
#include "dsp/delay_line.hpp"

namespace mute::dsp {
namespace {

TEST(DelayLine, ZeroDelayIsIdentity) {
  DelayLine d(0);
  EXPECT_FLOAT_EQ(d.process(3.5f), 3.5f);
}

TEST(DelayLine, DelaysByExactSampleCount) {
  DelayLine d(3);
  EXPECT_FLOAT_EQ(d.process(1.0f), 0.0f);
  EXPECT_FLOAT_EQ(d.process(2.0f), 0.0f);
  EXPECT_FLOAT_EQ(d.process(3.0f), 0.0f);
  EXPECT_FLOAT_EQ(d.process(4.0f), 1.0f);
  EXPECT_FLOAT_EQ(d.process(5.0f), 2.0f);
}

TEST(FractionalDelay, IntegerDelayMatchesDelayLine) {
  FractionalDelay fd(20.0, 31);
  DelayLine dl(20);
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const Sample x = static_cast<Sample>(rng.gaussian());
    EXPECT_NEAR(fd.process(x), dl.process(x), 1e-4);
  }
}

TEST(FractionalDelay, SineShiftsByExpectedPhase) {
  const double fs = 16000.0;
  const double freq = 500.0;
  const double delay = 7.25;
  FractionalDelay fd(delay, 31);
  // Feed sine, measure steady-state output vs delayed reference.
  double max_err = 0.0;
  for (int i = 0; i < 4000; ++i) {
    const double t = i / fs;
    const Sample y = fd.process(static_cast<Sample>(std::sin(kTwoPi * freq * t)));
    if (i > 500) {
      const double expected = std::sin(kTwoPi * freq * (t - delay / fs));
      max_err = std::max(max_err, std::abs(static_cast<double>(y) - expected));
    }
  }
  EXPECT_LT(max_err, 0.01);
}

TEST(FractionalDelay, ReportsTotalDelay) {
  FractionalDelay fd(12.34, 31);
  EXPECT_DOUBLE_EQ(fd.total_delay(), 12.34);
}

class FractionalDelayAccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(FractionalDelayAccuracyTest, BroadbandDelayAccuracy) {
  const double delay = GetParam();
  FractionalDelay fd(delay, 41);
  DelayLine truth(1000);  // impossible reference; use sine check per freq
  (void)truth;
  const double fs = 16000.0;
  for (double freq : {200.0, 1000.0, 3000.0}) {
    FractionalDelay fresh(delay, 41);
    double max_err = 0.0;
    for (int i = 0; i < 3000; ++i) {
      const double t = i / fs;
      const Sample y =
          fresh.process(static_cast<Sample>(std::sin(kTwoPi * freq * t)));
      if (i > 600) {
        const double expected = std::sin(kTwoPi * freq * (t - delay / fs));
        max_err = std::max(max_err, std::abs(static_cast<double>(y) - expected));
      }
    }
    // Delays shorter than a few samples leave the interpolating sinc
    // half-supported (nothing exists before t=0), a documented accuracy
    // limit of causal fractional delay; tolerate more error there.
    const double tol = delay < 5.0 ? 0.2 : 0.02;
    EXPECT_LT(max_err, tol) << "delay " << delay << " freq " << freq;
  }
}

INSTANTIATE_TEST_SUITE_P(Delays, FractionalDelayAccuracyTest,
                         ::testing::Values(0.5, 1.9, 2.4, 7.77, 25.5, 100.25));

}  // namespace
}  // namespace mute::dsp
