#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "audio/generators.hpp"
#include "common/math_utils.hpp"
#include "eval/listener.hpp"
#include "eval/metrics.hpp"
#include "eval/report.hpp"
#include "dsp/biquad.hpp"

namespace mute::eval {
namespace {

constexpr double kFs = 16000.0;

TEST(Metrics, PerfectCancellationIsVeryNegative) {
  audio::WhiteNoiseSource noise(0.2, 1);
  const auto d = noise.generate(64000);
  Signal r(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    r[i] = d[i] * 0.001f;  // -60 dB residual
  }
  const auto spec = cancellation_spectrum(d, r, kFs, 0.5);
  EXPECT_NEAR(spec.average_db(100, 4000), -60.0, 0.5);
}

TEST(Metrics, NoCancellationIsZero) {
  audio::WhiteNoiseSource noise(0.2, 2);
  const auto d = noise.generate(64000);
  const auto spec = cancellation_spectrum(d, d, kFs, 0.5);
  EXPECT_NEAR(spec.average_db(100, 4000), 0.0, 0.1);
}

TEST(Metrics, BandCancellationSeesShapedResidual) {
  // Residual keeps highs, kills lows -> LF band shows cancellation only.
  audio::WhiteNoiseSource noise(0.2, 3);
  const auto d = noise.generate(64000);
  dsp::Biquad hp = dsp::Biquad::highpass(2000.0, 0.707, kFs);
  Signal r(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) r[i] = hp.process(d[i]);
  const double lf = band_cancellation_db(d, r, kFs, 100, 500, 0.5);
  const double hf = band_cancellation_db(d, r, kFs, 4000, 7000, 0.5);
  EXPECT_LT(lf, -20.0);
  EXPECT_NEAR(hf, 0.0, 1.0);
}

TEST(Metrics, AtFindsNearestBin) {
  CancellationSpectrum s;
  s.freq_hz = {0.0, 100.0, 200.0};
  s.cancellation_db = {-1.0, -2.0, -3.0};
  EXPECT_DOUBLE_EQ(s.at(120.0), -2.0);
}

TEST(Metrics, SmoothingPreservesFlatCurves) {
  CancellationSpectrum s;
  for (int i = 0; i < 100; ++i) {
    s.freq_hz.push_back(i * 50.0);
    s.cancellation_db.push_back(-10.0);
  }
  const auto sm = s.smoothed(6.0);
  for (double v : sm.cancellation_db) EXPECT_NEAR(v, -10.0, 1e-9);
}

TEST(Metrics, SmoothingReducesSpikeHeight) {
  CancellationSpectrum s;
  for (int i = 0; i < 200; ++i) {
    s.freq_hz.push_back(100.0 + i * 20.0);
    s.cancellation_db.push_back(i == 100 ? 20.0 : 0.0);
  }
  const auto sm = s.smoothed(3.0);
  EXPECT_LT(sm.cancellation_db[100], 10.0);
}

TEST(Metrics, ConvergenceTimeDetectsDecay) {
  // Error decays exponentially to a floor after 1 second.
  Signal r(static_cast<std::size_t>(4 * kFs));
  Rng rng(5);
  for (std::size_t i = 0; i < r.size(); ++i) {
    const double env = 0.01 + 0.99 * std::exp(-static_cast<double>(i) / (0.25 * kFs));
    r[i] = static_cast<Sample>(env * rng.gaussian());
  }
  const double t = convergence_time_s(r, kFs);
  EXPECT_GT(t, 0.3);
  EXPECT_LT(t, 2.0);
}

TEST(Listener, QuieterResidualScoresHigher) {
  ListenerPanel panel(5, kFs, 42);
  audio::WhiteNoiseSource noise(0.2, 7);
  const auto d = noise.generate(32000);
  Signal quiet(d.size()), loud(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    quiet[i] = d[i] * 0.05f;  // -26 dB
    loud[i] = d[i] * 0.7f;    // -3 dB
  }
  const auto rq = panel.rate(d, quiet);
  const auto rl = panel.rate(d, loud);
  ASSERT_EQ(rq.size(), 5u);
  double mean_q = 0, mean_l = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    mean_q += rq[i].score;
    mean_l += rl[i].score;
  }
  EXPECT_GT(mean_q / 5, mean_l / 5 + 1.0);
}

TEST(Listener, ScoresStayInStarRange) {
  ListenerPanel panel(5, kFs, 1);
  audio::WhiteNoiseSource noise(0.2, 9);
  const auto d = noise.generate(16000);
  Signal silent(d.size(), 1e-6f);
  for (const auto& r : panel.rate(d, silent)) {
    EXPECT_GE(r.score, 1.0);
    EXPECT_LE(r.score, 5.0);
  }
}

TEST(Listener, DeterministicPerSeed) {
  ListenerPanel a(3, kFs, 7), b(3, kFs, 7);
  audio::WhiteNoiseSource noise(0.2, 11);
  const auto d = noise.generate(16000);
  Signal r(d.size(), 0.01f);
  const auto ra = a.rate(d, r);
  const auto rb = b.rate(d, r);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra[i].score, rb[i].score);
  }
}

TEST(Listener, AWeightingDiscountsLowFrequencies) {
  ListenerPanel panel(1, kFs, 3);
  audio::ToneSource low(60.0, 0.5, kFs), mid(1500.0, 0.5, kFs);
  const auto x_low = low.generate(16000);
  const auto x_mid = mid.generate(16000);
  EXPECT_LT(panel.a_weighted_level_db(x_low),
            panel.a_weighted_level_db(x_mid) - 10.0);
}

TEST(Report, TablePrintsAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1.00"});
  const double vals[] = {2.5};
  t.add_row("beta", vals);
  std::ostringstream os;
  t.print(os);
  const auto s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("2.50"), std::string::npos);
  EXPECT_NE(s.find("|-"), std::string::npos);
}

TEST(Report, TableRejectsWrongWidth) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

TEST(Report, FmtFormatsPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(-1.0, 0), "-1");
}

TEST(Report, AsciiChartRendersWithoutCrashing) {
  std::vector<double> x = {0, 1, 2, 3, 4};
  std::vector<Series> series = {{"up", {0, 1, 2, 3, 4}},
                                {"down", {4, 3, 2, 1, 0}}};
  std::ostringstream os;
  print_ascii_chart(os, x, series, "x", "y");
  EXPECT_NE(os.str().find("up"), std::string::npos);
  EXPECT_NE(os.str().find("down"), std::string::npos);
}

}  // namespace
}  // namespace mute::eval
