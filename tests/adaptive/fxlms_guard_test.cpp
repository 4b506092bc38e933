// FxLMS divergence guard: a wrong-sign secondary-path estimate turns the
// NLMS gradient into ascent — the classic field failure after a speaker
// rewire or a garbage calibration. The weight-norm guard must catch the
// runaway and roll back to the last-known-good snapshot.
#include <cmath>

#include <gtest/gtest.h>

#include "adaptive/fxlms.hpp"
#include "common/rng.hpp"

namespace mute::adaptive {
namespace {

/// Drive `eng` for `n` ticks against a plant whose true secondary path is
/// `plant_gain` (the engine's own estimate stays whatever it was built
/// with). Returns the max |anti-noise| seen.
double drive(FxlmsEngine& eng, double plant_gain, int n, Rng& rng) {
  double peak = 0.0;
  for (int t = 0; t < n; ++t) {
    const auto x = static_cast<Sample>(0.3 * rng.gaussian());
    const Sample y = eng.step_output(x);
    peak = std::max(peak, std::abs(static_cast<double>(y)));
    // Primary path: the disturbance is just x; anti-noise arrives through
    // the TRUE plant. With plant_gain opposite the estimate, adaptation
    // diverges.
    const auto e = static_cast<Sample>(static_cast<double>(x) +
                                       plant_gain * static_cast<double>(y));
    eng.adapt(e);
  }
  return peak;
}

TEST(FxlmsGuard, WrongSignPlantDivergesWithoutGuard) {
  FxlmsOptions opt;
  opt.causal_taps = 32;
  opt.mu = 0.5;
  FxlmsEngine eng({1.0}, opt);  // estimate +1, true plant -1
  Rng rng(11);
  // Drive by hand and bail as soon as the runaway is evident: left alone
  // it overflows to inf within a few thousand steps, and the hot path's
  // MUTE_CHECK_FINITE would (correctly) abort the process.
  for (int t = 0; t < 20000 && eng.weight_norm() < 10.0; ++t) {
    const auto x = static_cast<Sample>(0.3 * rng.gaussian());
    const Sample y = eng.step_output(x);
    eng.adapt(static_cast<Sample>(static_cast<double>(x) -
                                  static_cast<double>(y)));
  }
  // Unguarded: the norm runs away (this is the failure the guard exists
  // for; the exact value is unbounded and irrelevant).
  EXPECT_GE(eng.weight_norm(), 10.0);
  EXPECT_EQ(eng.rollback_count(), 0u);
}

TEST(FxlmsGuard, RollbackHaltsForcedDivergence) {
  FxlmsOptions opt;
  opt.causal_taps = 32;
  opt.mu = 0.5;
  opt.weight_norm_limit = 1.0;
  FxlmsEngine eng({1.0}, opt);
  Rng rng(11);
  const double peak = drive(eng, /*plant_gain=*/-1.0, 4000, rng);
  EXPECT_GE(eng.rollback_count(), 1u);
  EXPECT_LE(eng.weight_norm(), 1.0 + 1e-9);
  EXPECT_TRUE(std::isfinite(peak));
  // Bounded weights on a 0.3-rms reference keep the output bounded too.
  EXPECT_LT(peak, 20.0);
}

TEST(FxlmsGuard, DoesNotFireDuringHealthyConvergence) {
  FxlmsOptions opt;
  opt.causal_taps = 32;
  opt.mu = 0.5;
  opt.weight_norm_limit = 50.0;
  FxlmsEngine eng({1.0}, opt);
  Rng rng(12);
  drive(eng, /*plant_gain=*/1.0, 8000, rng);
  EXPECT_EQ(eng.rollback_count(), 0u);
  // Converged solution: w0 ~ -1 cancels the disturbance through the plant.
  EXPECT_NEAR(eng.weights()[0], -1.0, 0.05);
}

TEST(FxlmsGuard, WeightNormTracksTrueNorm) {
  FxlmsOptions opt;
  opt.causal_taps = 16;
  opt.mu = 0.3;
  opt.weight_norm_limit = 100.0;
  FxlmsEngine eng({1.0, 0.4}, opt);
  Rng rng(13);
  drive(eng, 1.0, 2000, rng);
  double norm2 = 0.0;
  for (const double w : eng.weights()) norm2 += w * w;
  // The incrementally maintained norm must not drift from the real one.
  EXPECT_NEAR(eng.weight_norm(), std::sqrt(norm2), 1e-6);
}

TEST(FxlmsGuard, SetWeightsBecomesTheRollbackTarget) {
  FxlmsOptions opt;
  opt.causal_taps = 4;
  opt.mu = 0.9;
  opt.weight_norm_limit = 1.0;
  FxlmsEngine eng({1.0}, opt);
  const std::vector<double> warm = {0.5, 0.0, 0.0, 0.0};
  eng.set_weights(warm);
  Rng rng(14);
  drive(eng, /*plant_gain=*/-1.0, 2000, rng);
  EXPECT_GE(eng.rollback_count(), 1u);
  // Wherever the runaway was caught, the surviving weights stay inside
  // the limit: the rollback target was the in-band warm start (or a
  // later in-band snapshot), never the diverged state.
  EXPECT_LE(eng.weight_norm(), 1.0 + 1e-9);
}

TEST(FxlmsGuard, ResetClearsRollbackCount) {
  FxlmsOptions opt;
  opt.causal_taps = 8;
  opt.mu = 0.9;
  opt.weight_norm_limit = 0.5;
  FxlmsEngine eng({1.0}, opt);
  Rng rng(15);
  drive(eng, -1.0, 2000, rng);
  ASSERT_GE(eng.rollback_count(), 1u);
  eng.reset();
  EXPECT_EQ(eng.rollback_count(), 0u);
  EXPECT_DOUBLE_EQ(eng.weight_norm(), 0.0);
}

}  // namespace
}  // namespace mute::adaptive
