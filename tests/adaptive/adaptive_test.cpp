#include <algorithm>
#include <cmath>
#include <span>

#include <gtest/gtest.h>

#include "adaptive/causal_wiener.hpp"
#include "adaptive/fxlms.hpp"
#include "adaptive/lms.hpp"
#include "adaptive/sysid.hpp"
#include "audio/generators.hpp"
#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "common/rng.hpp"
#include "dsp/fir_filter.hpp"
#include "dsp/signal_ops.hpp"

namespace mute::adaptive {
namespace {

TEST(Lms, IdentifiesFirSystem) {
  Rng rng(1);
  const std::vector<double> h = {0.5, -0.3, 0.2, 0.1};
  mute::dsp::FirFilter plant(h);
  AdaptiveFir fir(8);
  for (int i = 0; i < 20000; ++i) {
    const Sample x = static_cast<Sample>(rng.gaussian(0.5));
    fir.step(x, plant.process(x));
  }
  for (std::size_t k = 0; k < h.size(); ++k) {
    EXPECT_NEAR(fir.weights()[k], h[k], 1e-3);
  }
  for (std::size_t k = h.size(); k < 8; ++k) {
    EXPECT_NEAR(fir.weights()[k], 0.0, 1e-3);
  }
}

TEST(Lms, MisalignmentImprovesOverTime) {
  Rng rng(2);
  const std::vector<double> h = {1.0, 0.5, -0.25, 0.0};
  mute::dsp::FirFilter plant(h);
  AdaptiveFir fir(4);
  auto run = [&](int steps) {
    for (int i = 0; i < steps; ++i) {
      const Sample x = static_cast<Sample>(rng.gaussian(0.5));
      fir.step(x, plant.process(x));
    }
    return misalignment_db(fir.weights(), h);
  };
  const double early = run(200);
  const double late = run(20000);
  EXPECT_LT(late, early - 20.0);
}

TEST(Lms, NormalizationMakesStepScaleInvariant) {
  // NLMS converges at the same rate regardless of input scale.
  const std::vector<double> h = {0.7, -0.2};
  auto residual_after = [&](double scale) {
    Rng rng(3);
    mute::dsp::FirFilter plant(h);
    AdaptiveFir fir(4, 0.2);
    double err = 0.0;
    for (int i = 0; i < 3000; ++i) {
      const Sample x = static_cast<Sample>(rng.gaussian(scale));
      const Sample e = fir.step(x, plant.process(x));
      if (i > 2500) err += std::abs(static_cast<double>(e));
    }
    return err / scale;  // normalize error by scale for comparison
  };
  const double small = residual_after(0.01);
  const double large = residual_after(10.0);
  EXPECT_NEAR(small / large, 1.0, 0.2);
}

TEST(Lms, RejectsBadOptions) {
  EXPECT_THROW(AdaptiveFir(0), PreconditionError);
  EXPECT_THROW(AdaptiveFir(4, -1.0), PreconditionError);
}

TEST(SysId, IdentifySystemReportsQuality) {
  Rng rng(5);
  audio::WhiteNoiseSource noise(0.2, 5);
  const auto x = noise.generate(32000);
  mute::dsp::FirFilter plant({0.4, 0.3, -0.2, 0.1});
  Signal y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = plant.process(x[i]);
  const auto result = identify_system(x, y, 16);
  EXPECT_LT(result.final_error_db, -40.0);
  EXPECT_NEAR(result.impulse_response[0], 0.4, 1e-3);
}

// identify_system as it was before PathIdentifier: a whole-record NLMS
// pass (AdaptiveFir::identify's loop, inlined) and the rms of the error
// and response over the last quarter. Kept as the bit-identity reference.
SysIdResult whole_record_reference(std::span<const Sample> stimulus,
                                   std::span<const Sample> response,
                                   std::size_t taps) {
  AdaptiveFir fir(taps);
  Signal err(stimulus.size());
  for (std::size_t i = 0; i < stimulus.size(); ++i) {
    err[i] = fir.step(stimulus[i], response[i]);
  }

  // Report error power over the last quarter (converged region).
  const std::size_t tail = err.size() / 4;
  const std::span<const Sample> err_tail(err.data() + err.size() - tail, tail);
  const std::span<const Sample> resp_tail(
      response.data() + response.size() - tail, tail);
  const double e_rms = mute::dsp::rms(err_tail);
  const double d_rms = mute::dsp::rms(resp_tail);

  SysIdResult out;
  out.impulse_response = fir.weights();
  out.final_error_db = amplitude_to_db(e_rms / std::max(d_rms, 1e-12));
  return out;
}

void expect_matches_reference(const Signal& x, const Signal& y,
                              std::size_t taps) {
  const SysIdResult ref = whole_record_reference(x, y, taps);
  PathIdentifier id(taps, x.size());
  for (std::size_t i = 0; i < x.size(); ++i) id.push(x[i], y[i]);
  ASSERT_TRUE(id.done());
  const SysIdResult streamed = id.result();
  EXPECT_EQ(streamed.impulse_response, ref.impulse_response);
  EXPECT_EQ(streamed.final_error_db, ref.final_error_db);
  const SysIdResult whole = identify_system(x, y, taps);
  EXPECT_EQ(whole.impulse_response, ref.impulse_response);
  EXPECT_EQ(whole.final_error_db, ref.final_error_db);
}

TEST(SysId, PathIdentifierMatchesWholeRecordBitForBit) {
  audio::WhiteNoiseSource noise(0.2, 5);
  const Signal x = noise.generate(32000);
  mute::dsp::FirFilter plant({0.4, 0.3, -0.2, 0.1});
  Signal y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = plant.process(x[i]);
  expect_matches_reference(x, y, 16);

  // A record whose length is not a multiple of 4, with a noisy plant, so
  // the tail starts mid-quarter and the error is far from zero.
  Rng rng(29);
  const Signal xr = noise.generate(10003);
  mute::dsp::FirFilter colored({0.7, -0.5, 0.25, 0.1, -0.05});
  Signal yr(xr.size());
  for (std::size_t i = 0; i < xr.size(); ++i) {
    yr[i] = static_cast<Sample>(static_cast<double>(colored.process(xr[i])) +
                                rng.gaussian(0.02));
  }
  expect_matches_reference(xr, yr, 24);
}

TEST(SysId, PathIdentifierRejectsShortAndIncompleteRecords) {
  EXPECT_THROW(PathIdentifier(16, 63), PreconditionError);
  PathIdentifier id(16, 64);
  for (int i = 0; i < 63; ++i) id.push(0.1f, 0.05f);
  EXPECT_FALSE(id.done());
  EXPECT_THROW((void)id.result(), PreconditionError);
  id.push(0.1f, 0.05f);
  EXPECT_TRUE(id.done());
  EXPECT_EQ(id.result().impulse_response.size(), 16u);
}

TEST(SysId, CalibratePathDrivesPlantFunction) {
  Sample previous = 0.0f;
  const auto result = calibrate_path(
      [&previous](Sample s) {
        // delay-1 gain 0.8
        const auto out =
            static_cast<Sample>(0.8 * static_cast<double>(previous));
        previous = s;
        return out;
      },
      16000.0, 1.0, 8, 7);
  EXPECT_NEAR(result.impulse_response[1], 0.8, 1e-3);
  EXPECT_LT(result.final_error_db, -40.0);
}

TEST(Fxlms, CancelsWithPerfectLookahead) {
  Rng rng(11);
  std::vector<double> hse(8, 0.0);
  hse[2] = 1.0;
  FxlmsOptions opt;
  opt.causal_taps = 32;
  opt.noncausal_taps = 10;
  opt.mu = 0.5;
  FxlmsEngine eng(hse, opt);
  const int t_len = 60000;
  std::vector<float> n(t_len), y(t_len, 0.0f);
  for (auto& v : n) v = static_cast<float>(rng.gaussian(0.1));
  double err = 0.0;
  int count = 0;
  for (int t = 0; t < t_len; ++t) {
    const float x_adv = (t + 10 < t_len) ? n[t + 10] : 0.0f;
    y[t] = eng.step_output(x_adv);
    const float d = (t >= 10) ? n[t - 10] : 0.0f;
    const float a = (t >= 2) ? y[t - 2] : 0.0f;
    const float e = d + a;
    eng.adapt(e);
    if (t > t_len / 2) {
      err += static_cast<double>(e) * static_cast<double>(e);
      ++count;
    }
  }
  EXPECT_LT(10.0 * std::log10(err / count / 0.01), -60.0);
}

TEST(Fxlms, WeightOrderingNoncausalFirst) {
  std::vector<double> hse = {1.0};
  FxlmsOptions opt;
  opt.causal_taps = 4;
  opt.noncausal_taps = 2;
  FxlmsEngine eng(hse, opt);
  EXPECT_EQ(eng.total_taps(), 6u);
  EXPECT_EQ(eng.noncausal_taps(), 2u);
  std::vector<double> w = {1, 2, 3, 4, 5, 6};
  eng.set_weights(w);
  EXPECT_EQ(eng.weights()[0], 1.0);
}

TEST(Fxlms, ResetHistoryKeepsWeights) {
  std::vector<double> hse = {1.0};
  FxlmsEngine eng(hse, {.causal_taps = 4});
  eng.push_reference(1.0f);
  std::vector<double> w = {1, 2, 3, 4};
  eng.set_weights(w);
  eng.reset_history();
  EXPECT_EQ(eng.weights()[1], 2.0);
  EXPECT_FLOAT_EQ(eng.compute_antinoise(), 0.0f);  // history cleared
}

TEST(Fxlms, FullResetClearsWeights) {
  std::vector<double> hse = {1.0};
  FxlmsEngine eng(hse, {.causal_taps = 4});
  std::vector<double> w = {1, 2, 3, 4};
  eng.set_weights(w);
  eng.reset();
  for (double v : eng.weights()) EXPECT_EQ(v, 0.0);
}

TEST(Fxlms, RetargetRemapsWeightsToTheNewWindow) {
  // Shrinking the non-causal window with a positive shift keeps the
  // causal tail intact: w_new[i] = w_old[i + shift]. Layout is
  // noncausal-first, so dropping two lookahead taps with shift = 2
  // discards exactly the two most-advanced weights.
  FxlmsOptions opt;
  opt.causal_taps = 3;
  opt.noncausal_taps = 4;
  FxlmsEngine eng({1.0}, opt);
  std::vector<double> w = {0, 1, 2, 3, 4, 5, 6};
  eng.set_weights(w);
  eng.retarget_noncausal(2, 2);
  EXPECT_EQ(eng.noncausal_taps(), 2u);
  EXPECT_EQ(eng.total_taps(), 5u);
  const std::vector<double> expect = {2, 3, 4, 5, 6};
  EXPECT_EQ(eng.weights(), expect);
}

TEST(Fxlms, RetargetGrowsWindowWithZeroFill) {
  // Growing the window with a negative shift leaves the old weights at
  // their same absolute time offsets and zero-fills the newly available
  // lookahead taps (out-of-range source indices read as silence).
  FxlmsOptions opt;
  opt.causal_taps = 2;
  opt.noncausal_taps = 2;
  FxlmsEngine eng({1.0}, opt);
  std::vector<double> w = {1, 2, 3, 4};
  eng.set_weights(w);
  eng.retarget_noncausal(4, -2);
  EXPECT_EQ(eng.noncausal_taps(), 4u);
  EXPECT_EQ(eng.total_taps(), 6u);
  const std::vector<double> expect = {0, 0, 1, 2, 3, 4};
  EXPECT_EQ(eng.weights(), expect);
}

TEST(CausalWiener, SolveSpdSolvesKnownSystem) {
  // A = [[4,1],[1,3]], b = [1, 2] -> x = [1/11, 7/11].
  const auto x = solve_spd({4, 1, 1, 3}, {1, 2}, 2);
  EXPECT_NEAR(x[0], 1.0 / 11.0, 1e-12);
  EXPECT_NEAR(x[1], 7.0 / 11.0, 1e-12);
}

TEST(CausalWiener, SolveSpdRejectsIndefinite) {
  EXPECT_THROW(solve_spd({1, 2, 2, 1}, {1, 1}, 2), PreconditionError);
}

TEST(CausalWiener, FitCancelsCausalSystem) {
  Rng rng(19);
  Signal u(32000), d(32000);
  mute::dsp::FirFilter f({0.6, -0.3});
  for (std::size_t i = 0; i < u.size(); ++i) {
    u[i] = static_cast<Sample>(rng.gaussian(0.3));
    d[i] = f.process(u[i]);
  }
  const auto w = fit_causal_fir(u, d, 8);
  // d + w*u ~ 0 means w ~ -f.
  EXPECT_NEAR(w[0], -0.6, 1e-2);
  EXPECT_NEAR(w[1], 0.3, 1e-2);
}

TEST(CausalWiener, EffortPenaltyShrinksGain) {
  Rng rng(23);
  Signal u(32000), d(32000);
  for (std::size_t i = 0; i < u.size(); ++i) {
    u[i] = static_cast<Sample>(rng.gaussian(0.3));
    d[i] = static_cast<Sample>(-0.9 * static_cast<double>(u[i]));
  }
  const auto w_free = fit_causal_fir(u, d, 4);
  const auto w_pen = fit_causal_fir(u, d, 4, 1e-4, u, 4.0);
  EXPECT_NEAR(w_free[0], 0.9, 1e-2);
  EXPECT_LT(std::abs(w_pen[0]), std::abs(w_free[0]));
}

TEST(CausalWiener, RejectsShortRecord) {
  Signal u(10), d(10);
  EXPECT_THROW(fit_causal_fir(u, d, 8), PreconditionError);
}

// Property: more noncausal taps never hurt steady-state cancellation of a
// delayed-inverse problem (the LANC core claim, unit-scale version).
// Steady-state error (dB re the disturbance) of an FxLMS engine with
// `n_taps` noncausal taps on that problem.
double lookahead_steady_error_db(std::size_t n_taps) {
  Rng rng(31);
  // Plant h_se = delayed delta; disturbance needs a non-causal inverse:
  // x is *late* relative to d by 6 samples unless N >= 6 covers it.
  std::vector<double> hse(4, 0.0);
  hse[1] = 1.0;
  FxlmsOptions opt;
  opt.causal_taps = 48;
  opt.noncausal_taps = n_taps;
  opt.mu = 0.4;
  FxlmsEngine eng(hse, opt);
  const int t_len = 50000;
  std::vector<float> src(t_len), y(t_len, 0.0f);
  for (auto& v : src) v = static_cast<float>(rng.gaussian(0.1));
  double err = 0.0;
  int count = 0;
  for (int t = 0; t < t_len; ++t) {
    // Reference advanced by N (what the relay provides).
    const int adv = t + static_cast<int>(n_taps);
    const float x_adv = (adv < t_len) ? src[adv] : 0.0f;
    y[t] = eng.step_output(x_adv);
    // Disturbance: src arrives at the ear NOW; anti-noise needs 7 samples
    // of future (6 ahead + 1 plant delay) to fully invert.
    const float d = (t >= 0) ? src[t] : 0.0f;
    const float a = (t >= 1) ? y[t - 1] : 0.0f;
    const float e = d + a;
    eng.adapt(e);
    if (t > t_len / 2) {
      err += static_cast<double>(e) * static_cast<double>(e);
      ++count;
    }
  }
  return 10.0 * std::log10(err / count / 0.01);
}

class LookaheadTapsTest : public ::testing::TestWithParam<std::size_t> {};

// Each instance runs its own N = 0 baseline, so the verdict does not
// depend on which other instances ran before it in the process.
TEST_P(LookaheadTapsTest, CancellationImprovesWithN) {
  const std::size_t n_taps = GetParam();
  EXPECT_LE(lookahead_steady_error_db(n_taps),
            lookahead_steady_error_db(0) + 1.0)
      << "N=" << n_taps;
}

INSTANTIATE_TEST_SUITE_P(MoreTapsBetter, LookaheadTapsTest,
                         ::testing::Values(0, 1, 2, 4, 8));

}  // namespace
}  // namespace mute::adaptive

// -- appended coverage: ridge escalation on rank-deficient records --------
namespace mute::adaptive {
namespace {

TEST(CausalWiener, TonalRecordStillSolvable) {
  // A pure tone excites one eigen-direction only: the plain normal matrix
  // is singular, and the fit must escalate the ridge instead of throwing.
  const double fs = 16000.0;
  Signal u(32000), d(32000);
  for (std::size_t i = 0; i < u.size(); ++i) {
    const double t = static_cast<double>(i) / fs;
    u[i] = static_cast<Sample>(0.5 * std::sin(kTwoPi * 500.0 * t));
    d[i] = static_cast<Sample>(-0.4 * std::sin(kTwoPi * 500.0 * t));
  }
  const auto w = fit_causal_fir(u, d, 32);
  // Applying w to u should cancel d at the tone frequency.
  mute::dsp::FirFilter wf(w);
  double err = 0.0, sig = 0.0;
  for (std::size_t i = 1000; i < u.size(); ++i) {
    const double e = static_cast<double>(d[i]) +
                     static_cast<double>(wf.process(u[i]));
    err += e * e;
    sig += static_cast<double>(d[i]) * static_cast<double>(d[i]);
  }
  EXPECT_LT(10.0 * std::log10(err / sig), -20.0);
}

}  // namespace
}  // namespace mute::adaptive
