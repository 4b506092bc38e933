// FxlmsEngine defers the adapt() step into the next step_output(), which
// applies it in one fused pass with the output and filtered-reference dots.
// No caller may observe that: an engine whose weights are read after every
// adapt() (each read settles the step through the unfused kernel), one
// driven in the push_reference/compute_antinoise order, and one never read
// between ticks (every step fused) must produce the same bits — outputs,
// final weights and rollback counts — through divergence-guard rollbacks,
// the excitation gate, and control-plane calls landing between adapt() and
// the next step (the reading engine has settled before each call, the
// others have not). The reads right after adapt() must also see the step
// already taken: they equal the reads the push/compute engine makes after
// its next push_reference().
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <functional>
#include <vector>

#include "adaptive/fxlms.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "dsp/fir_filter.hpp"

namespace mute::adaptive {
namespace {

enum class Drive {
  kFused,          // step_output + adapt, never read between ticks
  kReadEveryTick,  // weights()/weight_norm()/rollback_count() after adapt
  kPushCompute,    // push_reference + compute_antinoise + adapt
};

struct Trace {
  std::vector<Sample> y;
  std::vector<double> w;
  std::size_t rollbacks = 0;
  // Per tick: sum of weights(), weight_norm(), rollback_count(), and
  // whether a control-plane call followed that tick's adapt().
  std::vector<std::array<double, 3>> reads;
  std::vector<bool> called;
};

// Control-plane call made right after the adapt() of tick t; returns
// whether it made one.
using Between = std::function<bool(FxlmsEngine&, std::size_t t)>;

std::vector<double> secondary_path(std::size_t taps, unsigned seed) {
  Rng rng(seed);
  std::vector<double> h(taps);
  for (std::size_t i = 0; i < taps; ++i) {
    h[i] = rng.gaussian() * std::exp(-0.2 * static_cast<double>(i));
  }
  return h;
}

// White reference at 0.3 RMS; the optional quiet stretch drops it to 1e-4
// so an excitation gate holds the weights there.
Signal reference(std::size_t n, bool with_quiet_stretch) {
  Rng rng(23);
  Signal x(n);
  for (std::size_t t = 0; t < n; ++t) {
    const bool quiet = with_quiet_stretch && t >= 900 && t < 1400;
    x[t] = static_cast<Sample>((quiet ? 1e-4 : 0.3) * rng.gaussian());
  }
  return x;
}

// Closed loop: the disturbance is the reference three samples late and
// inverted; the anti-noise reaches the error mic through `h_true`.
Trace drive(const FxlmsOptions& opt, const std::vector<double>& h_est,
            const std::vector<double>& h_true, const Signal& x, Drive mode,
            const Between& between) {
  FxlmsEngine eng(h_est, opt);
  dsp::FirFilter plant(h_true);
  Trace run;
  // Each of the three readers goes first on every third tick, so each
  // must settle a pending step on its own.
  const auto read = [&](std::size_t t) {
    std::array<double, 3> r{};
    for (std::size_t k = 0; k < 3; ++k) {
      switch ((t + k) % 3) {
        case 0:
          for (const double w : eng.weights()) r[0] += w;
          break;
        case 1:
          r[1] = eng.weight_norm();
          break;
        default:
          r[2] = static_cast<double>(eng.rollback_count());
          break;
      }
    }
    run.reads.push_back(r);
  };
  for (std::size_t t = 0; t < x.size(); ++t) {
    Sample y;
    if (mode == Drive::kPushCompute) {
      eng.push_reference(x[t]);
      read(t);  // the state after tick t - 1
      y = eng.compute_antinoise();
    } else {
      y = eng.step_output(x[t]);
    }
    run.y.push_back(y);
    const double d = t >= 3 ? -0.8 * static_cast<double>(x[t - 3]) : 0.0;
    eng.adapt(static_cast<Sample>(
        d + static_cast<double>(plant.process(y))));
    if (mode == Drive::kReadEveryTick) read(t);
    run.called.push_back(between && between(eng, t));
  }
  run.w = eng.weights();
  run.rollbacks = eng.rollback_count();
  return run;
}

void expect_bit_equal(const Trace& a, const Trace& b, const char* what) {
  ASSERT_EQ(a.y.size(), b.y.size()) << what;
  for (std::size_t t = 0; t < a.y.size(); ++t) {
    ASSERT_EQ(a.y[t], b.y[t]) << what << " t=" << t;
  }
  ASSERT_EQ(a.w.size(), b.w.size()) << what;
  for (std::size_t i = 0; i < a.w.size(); ++i) {
    ASSERT_EQ(a.w[i], b.w[i]) << what << " i=" << i;
  }
  EXPECT_EQ(a.rollbacks, b.rollbacks) << what;
}

// Runs all three drive modes and requires identical bits; returns the
// fused run.
Trace expect_deferral_invisible(const FxlmsOptions& opt,
                                const std::vector<double>& h_est,
                                const Signal& x, const Between& between = {}) {
  const auto h_true = h_est;
  const Trace fused = drive(opt, h_est, h_true, x, Drive::kFused, between);
  const Trace read =
      drive(opt, h_est, h_true, x, Drive::kReadEveryTick, between);
  const Trace push =
      drive(opt, h_est, h_true, x, Drive::kPushCompute, between);
  expect_bit_equal(fused, read, "fused vs read-every-tick");
  expect_bit_equal(fused, push, "fused vs push/compute");
  EXPECT_EQ(read.reads.size(), x.size());
  EXPECT_EQ(push.reads.size(), x.size());
  for (std::size_t t = 0; t + 1 < x.size(); ++t) {
    if (!read.called[t] && read.reads[t] != push.reads[t + 1]) {
      ADD_FAILURE() << "reads after adapt() miss its step at t=" << t;
      break;
    }
  }
  return fused;
}

FxlmsOptions base_options() {
  FxlmsOptions opt;
  opt.causal_taps = 40;
  opt.noncausal_taps = 9;  // 49 taps: six full lanes plus a tail
  opt.mu = 0.3;
  return opt;
}

TEST(FxlmsDeferredStep, PlainStreamIsBitIdenticalAcrossCallPatterns) {
  const auto x = reference(3000, false);
  const Trace run =
      expect_deferral_invisible(base_options(), secondary_path(24, 5), x);
  double norm2 = 0.0;
  for (const double w : run.w) norm2 += w * w;
  EXPECT_GT(norm2, 0.0);  // it adapted
}

TEST(FxlmsDeferredStep, GuardRollbacksAreBitIdentical) {
  FxlmsOptions opt = base_options();
  opt.weight_norm_limit = 0.3;  // below the optimum: the guard must act
  const Trace run = expect_deferral_invisible(opt, secondary_path(24, 5),
                                              reference(3000, false));
  EXPECT_GT(run.rollbacks, 0u);
}

TEST(FxlmsDeferredStep, ExcitationGateIsBitIdentical) {
  FxlmsOptions opt = base_options();
  opt.leakage = 1e-3;  // leaky steps would move the weights while quiet
  opt.min_excitation = 1e-3;
  const auto h = secondary_path(24, 5);
  const auto x = reference(2000, true);
  const Trace gated = expect_deferral_invisible(opt, h, x);
  opt.min_excitation = 0.0;
  const Trace ungated = drive(opt, h, h, x, Drive::kFused, {});
  EXPECT_NE(gated.w, ungated.w);  // the gate held the weights
}

TEST(FxlmsDeferredStep, ControlPlaneCallsBetweenAdaptAndStepSettleFirst) {
  FxlmsOptions opt = base_options();
  opt.weight_norm_limit = 2.0;
  const Between between = [](FxlmsEngine& eng, std::size_t t) {
    switch (t) {
      case 500: {
        std::vector<double> w(eng.total_taps());
        for (std::size_t i = 0; i < w.size(); ++i) {
          w[i] = 0.01 * std::sin(static_cast<double>(i));
        }
        eng.set_weights(w);
        return true;
      }
      case 800:
        eng.restore_snapshot();
        return true;
      case 1100:
        eng.retarget_noncausal(6, 3);
        return true;
      case 1400: {
        const std::vector<double> window(eng.reference_window().begin(),
                                         eng.reference_window().end());
        eng.prime_history(window);
        return true;
      }
      case 1700:
        eng.reset_history();
        return true;
      case 2000:
        eng.set_mu(0.1);
        return true;
      case 2300:
        eng.reset();
        return true;
      case 2600:
        eng.adapt(0.05f);  // a second step before the next output
        return true;
      default:
        return false;
    }
  };
  const Trace run = expect_deferral_invisible(
      opt, secondary_path(24, 5), reference(3000, false), between);
  EXPECT_EQ(run.w.size(), 46u);  // the retarget landed
}

// The filtered reference is a dot of the estimate over the reference
// window, so an estimate longer than the weight window must still see
// its whole length: its ||u||^2 window matches a FirFilter of the same
// estimate, and the three call patterns agree.
TEST(FxlmsDeferredStep, SecondaryPathLongerThanTheWeights) {
  FxlmsOptions opt;
  opt.causal_taps = 6;
  opt.noncausal_taps = 2;
  opt.mu = 0.2;
  const auto h = secondary_path(40, 9);
  const auto x = reference(1500, false);

  FxlmsEngine eng(h, opt);
  dsp::FirFilter u_ref(h);
  std::vector<double> u;
  for (std::size_t t = 0; t < x.size(); ++t) {
    const Sample y = eng.step_output(x[t]);
    u.push_back(static_cast<double>(u_ref.process(x[t])));
    double power = 0.0;
    for (std::size_t j = 0; j < 8 && j <= t; ++j) {
      power += u[t - j] * u[t - j];
    }
    ASSERT_NEAR(eng.reference_power(), power, 1e-9 * (power + 1e-12))
        << "t=" << t;
    eng.adapt(static_cast<Sample>(0.5 * static_cast<double>(x[t]) +
                                  static_cast<double>(y)));
  }

  expect_deferral_invisible(opt, h, x);
}

TEST(FxlmsDeferredStep, FusedStepDoesNotAllocate) {
  FxlmsOptions opt = base_options();
  opt.weight_norm_limit = 0.3;
  const auto h = secondary_path(24, 5);
  FxlmsEngine eng(h, opt);
  const auto x = reference(2000, false);
  Sample e = 0.0f;
  std::size_t t = 0;
  for (; t < 200; ++t) {
    eng.adapt(e);
    e = static_cast<Sample>(static_cast<double>(x[t]) +
                            static_cast<double>(eng.step_output(x[t])));
  }
  RtAllocationGuard guard(RtAllocationGuard::Mode::kCount, "fxlms-fused");
  for (; t < x.size(); ++t) {
    eng.adapt(e);
    e = static_cast<Sample>(static_cast<double>(x[t]) +
                            static_cast<double>(eng.step_output(x[t])));
  }
  if (RtAllocationGuard::interposition_enabled()) {
    EXPECT_EQ(guard.allocations_since_entry(), 0u);
  }
  EXPECT_GT(eng.rollback_count(), 0u);  // rollbacks ran inside the guard
}

}  // namespace
}  // namespace mute::adaptive
