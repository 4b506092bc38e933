#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/arena.hpp"
#include "common/contracts.hpp"
#include "common/math_utils.hpp"
#include "common/rng.hpp"
#include "core/gcc_phat.hpp"
#include "core/relay_select.hpp"
#include "dsp/fft.hpp"

namespace mute::core {
namespace {

constexpr double kFs = 16000.0;

// Naive GCC-PHAT, kept only as the tests' reference: circular cross-
// correlation of the zero-padded records through two full complex
// forward transforms and one inverse, PHAT-weighted with std::abs.
struct ReferenceCorrelation {
  std::vector<double> window;  // lags -max_lag .. +max_lag
  std::ptrdiff_t peak_lag = 0;
  double peak_value = 0.0;
};

ReferenceCorrelation reference_gcc_phat(const Signal& relay,
                                        const Signal& error,
                                        std::size_t max_lag) {
  const std::size_t nfft = next_pow2(2 * relay.size());
  ComplexSignal fr(nfft), fe(nfft);
  for (std::size_t i = 0; i < relay.size(); ++i) {
    fr[i] = static_cast<double>(relay[i]);
    fe[i] = static_cast<double>(error[i]);
  }
  const ComplexSignal sr = dsp::fft(fr);
  const ComplexSignal se = dsp::fft(fe);
  ComplexSignal cross(nfft);
  for (std::size_t k = 0; k < nfft; ++k) {
    const Complex c = se[k] * std::conj(sr[k]);
    const double mag = std::abs(c);
    cross[k] = mag > 1e-15 ? c / mag : Complex(0.0, 0.0);
  }
  dsp::ifft_inplace(cross);
  ReferenceCorrelation out;
  double best = -1.0;
  const auto l = static_cast<std::ptrdiff_t>(max_lag);
  for (std::ptrdiff_t lag = -l; lag <= l; ++lag) {
    const std::size_t idx = lag >= 0 ? static_cast<std::size_t>(lag)
                                     : nfft - static_cast<std::size_t>(-lag);
    const double v = cross[idx].real();
    out.window.push_back(v);
    if (v > best) {
      best = v;
      out.peak_lag = lag;
    }
  }
  out.peak_value = best;
  return out;
}

// Seeded round: a shared source heard by the error mic with a delay and by
// each relay with its own lead or lag, plus independent sensor noise.
// `silent_relay` (if < relays) forwards nothing at all.
struct Round {
  std::vector<Signal> relays;
  Signal error;
};

Round make_round(std::size_t relays, std::size_t n, std::uint64_t seed,
                 std::size_t silent_relay) {
  Rng rng(seed);
  const std::size_t pad = 400;
  Signal source(n + 2 * pad);
  for (auto& v : source) v = static_cast<Sample>(rng.gaussian(0.3));
  const auto heard = [&](std::ptrdiff_t delay, double noise) {
    Signal out(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto j = static_cast<std::ptrdiff_t>(i + pad) - delay;
      out[i] = source[static_cast<std::size_t>(j)] +
               static_cast<Sample>(rng.gaussian(noise));
    }
    return out;
  };
  Round r;
  r.error = heard(120, 0.05);
  for (std::size_t k = 0; k < relays; ++k) {
    if (k == silent_relay) {
      r.relays.emplace_back(n, 0.0f);
      continue;
    }
    // Leads of 10..250 samples (some lag the ear), growing noise.
    const auto delay = static_cast<std::ptrdiff_t>(rng.uniform_int(10, 250));
    r.relays.push_back(heard(delay, 0.02 + 0.02 * static_cast<double>(k)));
  }
  return r;
}

void load_round(GccPhatPlan& plan, const Round& r) {
  std::copy(r.error.begin(), r.error.end(), plan.error_record().begin());
  for (std::size_t k = 0; k < r.relays.size(); ++k) {
    std::copy(r.relays[k].begin(), r.relays[k].end(),
              plan.relay_record(k).begin());
  }
}

void expect_plan_matches_reference(std::size_t relays, double period_s,
                                   std::uint64_t seed,
                                   std::size_t silent_relay) {
  SCOPED_TRACE(::testing::Message() << "R=" << relays << " period="
                                    << period_s << " silent=" << silent_relay);
  const auto n = static_cast<std::size_t>(period_s * kFs);
  const Round r = make_round(relays, n, seed, silent_relay);
  GccPhatPlan plan(relays, n, kFs, 0.05);
  load_round(plan, r);
  plan.run();
  for (std::size_t k = 0; k < relays; ++k) {
    SCOPED_TRACE(::testing::Message() << "relay " << k);
    const ReferenceCorrelation ref =
        reference_gcc_phat(r.relays[k], r.error, plan.max_lag());
    const GccPhatPeak& got = plan.peaks()[k];
    EXPECT_EQ(std::lround(got.lag_s * kFs), ref.peak_lag);
    EXPECT_NEAR(got.value, ref.peak_value, 1e-9);
    const auto window = plan.correlation(k);
    ASSERT_EQ(window.size(), ref.window.size());
    double worst = 0.0;
    for (std::size_t j = 0; j < window.size(); ++j) {
      worst = std::max(worst, std::abs(window[j] - ref.window[j]));
    }
    EXPECT_LT(worst, 1e-9);
    if (k == silent_relay) {
      // PHAT's zero-magnitude branch: no correlation at any lag.
      EXPECT_EQ(got.value, 0.0);
    } else {
      EXPECT_GT(got.value, 0.1);  // the seeded lead is actually found
    }
  }
}

TEST(GccPhatPlan, MatchesNaiveReferenceAcrossRelayCountsAndPeriods) {
  std::uint64_t seed = 100;
  for (const std::size_t relays : {1u, 2u, 3u, 4u, 8u}) {
    for (const double period_s : {0.25, 0.5, 1.0}) {
      // Every relay loud, then one relay silent: relay R/2 shares its
      // forward transform with the error mic when R = 1, and with a loud
      // relay partner otherwise.
      expect_plan_matches_reference(relays, period_s, ++seed, relays);
      expect_plan_matches_reference(relays, period_s, ++seed, relays / 2);
    }
  }
}

TEST(GccPhatPlan, SilentErrorMicCorrelatesToNothing) {
  const std::size_t n = 4000;
  Round r = make_round(3, n, 7, 3);
  std::fill(r.error.begin(), r.error.end(), 0.0f);
  GccPhatPlan plan(3, n, kFs, 0.01);
  load_round(plan, r);
  plan.run();
  for (const GccPhatPeak& p : plan.peaks()) {
    EXPECT_EQ(p.value, 0.0);
    EXPECT_DOUBLE_EQ(p.lag_s, -static_cast<double>(plan.max_lag()) / kFs);
  }
}

// Everything a round leaves in its plan: the peaks and every window.
struct RoundOutput {
  std::vector<double> lags;
  std::vector<double> values;
  std::vector<double> windows;
};

RoundOutput run_round(GccPhatPlan& plan) {
  plan.run();
  RoundOutput out;
  for (std::size_t k = 0; k < plan.relay_count(); ++k) {
    out.lags.push_back(plan.peaks()[k].lag_s);
    out.values.push_back(plan.peaks()[k].value);
    const auto w = plan.correlation(k);
    out.windows.insert(out.windows.end(), w.begin(), w.end());
  }
  return out;
}

void expect_bit_equal(const RoundOutput& got, const RoundOutput& want) {
  EXPECT_EQ(got.lags, want.lags);
  EXPECT_EQ(got.values, want.values);
  EXPECT_EQ(got.windows, want.windows);
}

// A plan of `relays` relays over `period_s` records of `round`, built and
// run once on a thread of its own: nothing else ever touched its scratch.
RoundOutput solo_round(std::size_t relays, double period_s,
                       const Round& round) {
  RoundOutput out;
  std::thread([&] {
    GccPhatPlan plan(relays, static_cast<std::size_t>(period_s * kFs), kFs);
    load_round(plan, round);
    out = run_round(plan);
  }).join();
  return out;
}

TEST(GccPhatPlan, RoundsAreRepeatableOnOnePlan) {
  // The transform buffers are the thread's round scratch, reused across
  // rounds and shared by every plan on the thread: a second round on the
  // same records must reproduce the first bit for bit.
  const std::size_t n = 4000;
  const Round r = make_round(4, n, 11, 4);
  GccPhatPlan plan(4, n, kFs);
  load_round(plan, r);
  const RoundOutput first = run_round(plan);
  expect_bit_equal(run_round(plan), first);

  // Plans of different shapes interleaved on one thread (the larger nfft
  // and a relay count that stores the error spectrum, against one that
  // does not) each reproduce their solo run.
  const Round one_r = make_round(1, 16000, 12, 1);
  const Round four_r = make_round(4, 8000, 13, 1);
  const RoundOutput one_solo = solo_round(1, 1.0, one_r);
  const RoundOutput four_solo = solo_round(4, 0.5, four_r);
  GccPhatPlan one(1, 16000, kFs);
  GccPhatPlan four(4, 8000, kFs);
  load_round(one, one_r);
  load_round(four, four_r);
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(::testing::Message() << "pass " << pass);
    expect_bit_equal(run_round(four), four_solo);
    expect_bit_equal(run_round(one), one_solo);
    expect_bit_equal(run_round(plan), first);
  }
}

TEST(GccPhatPlan, ThreadThatReservedRunsPlansBuiltElsewhere) {
  // The fleet's case: a plan built on one thread runs its rounds on
  // another, which grew its own scratch first.
  const Round r = make_round(3, 8000, 14, 3);
  GccPhatPlan plan(3, 8000, kFs);
  load_round(plan, r);
  const RoundOutput here = run_round(plan);
  RoundOutput there;
  std::thread([&] {
    GccPhatPlan::reserve_thread_scratch(8000);
    there = run_round(plan);
  }).join();
  expect_bit_equal(there, here);
}

TEST(GccPhatPlanDeathTest, RoundOnAThreadWithoutScratchAbortsLoudly) {
  // run() never grows the scratch: on a thread that neither built the
  // plan nor reserved, it aborts before it allocates anything (the guard
  // would abort with its own message if it did).
  GccPhatPlan plan(2, 4000, kFs);
  EXPECT_DEATH(
      {
        std::thread([&] {
          RtAllocationGuard guard(RtAllocationGuard::Mode::kAbort,
                                  "gcc-phat-round");
          plan.run();
        }).join();
      },
      "round scratch was never grown");
}

TEST(GccPhatPlanDeathTest, ScratchNeverGrowsInsideATenantArena) {
  // Growth goes to the global heap: a plan built with an arena installed
  // on a thread whose scratch is too small aborts instead of leaving the
  // scratch in the arena.
  ArenaPool pool(std::size_t{1} << 20, 1);
  EXPECT_DEATH(
      {
        std::thread([&] {
          ScopedArenaAlloc scope(pool.arena(0));
          GccPhatPlan plan(1, 4000, kFs);
        }).join();
      },
      "must not grow inside a tenant arena");
}

// After construction, whole selection periods — capture pushes and the
// round itself — allocate nothing, and the handle a round returns points
// at the selector's own storage.
void expect_push_allocation_free(std::size_t relays, double period_s) {
  SCOPED_TRACE(::testing::Message() << "R=" << relays);
  RelaySelector selector(relays, kFs, period_s);
  const auto period = static_cast<std::size_t>(period_s * kFs);
  const Round r = make_round(relays, 3 * period, 21, relays);
  std::vector<Sample> feed(relays);
  std::size_t rounds = 0;
  bool same_storage = true;
  std::size_t allocations = 0;
  {
    RtAllocationGuard guard(RtAllocationGuard::Mode::kCount,
                            "relay-select-push");
    for (std::size_t t = 0; t < 3 * period; ++t) {
      for (std::size_t k = 0; k < relays; ++k) feed[k] = r.relays[k][t];
      if (auto sel = selector.push(feed, r.error[t])) {
        ++rounds;
        same_storage = same_storage && &*sel == &*selector.current();
      }
    }
    allocations = guard.allocations_since_entry();
  }
  EXPECT_EQ(rounds, 3u);
  EXPECT_TRUE(same_storage);
  EXPECT_EQ(allocations, 0u) << "RelaySelector::push allocated";
  ASSERT_TRUE(selector.current().has_value());
  EXPECT_EQ(selector.current()->all.size(), relays);
}

TEST(RelaySelectorRt, PushAllocatesNothingAfterConstruction) {
  if (!RtAllocationGuard::interposition_enabled()) {
    GTEST_SKIP() << "allocation interposition compiled out";
  }
  expect_push_allocation_free(1, 1.0);
  expect_push_allocation_free(4, 0.5);
}

TEST(RelaySelectorRt, StreamingRoundsMatchSelectRelay) {
  // The streaming selector and the one-shot select_relay() run the same
  // plan: identical records give identical measurements and ranking.
  const std::size_t relays = 3;
  const std::size_t period = 4000;
  const Round r = make_round(relays, period, 31, relays);
  RelaySelector selector(relays, kFs, period / kFs);
  std::vector<Sample> feed(relays);
  RelaySelectionRef sel;
  for (std::size_t t = 0; t < period; ++t) {
    for (std::size_t k = 0; k < relays; ++k) feed[k] = r.relays[k][t];
    sel = selector.push(feed, r.error[t]);
  }
  ASSERT_TRUE(sel.has_value());
  const RelaySelection one_shot = select_relay(r.relays, r.error, kFs);
  ASSERT_EQ(sel->all.size(), one_shot.all.size());
  for (std::size_t k = 0; k < relays; ++k) {
    EXPECT_EQ(sel->all[k].lookahead_s, one_shot.all[k].lookahead_s);
    EXPECT_EQ(sel->all[k].confidence, one_shot.all[k].confidence);
  }
  ASSERT_EQ(sel->ranked.size(), one_shot.ranked.size());
  for (std::size_t k = 0; k < sel->ranked.size(); ++k) {
    EXPECT_EQ(sel->ranked[k].relay_index, one_shot.ranked[k].relay_index);
  }
  EXPECT_EQ(sel->chosen.has_value(), one_shot.chosen.has_value());
}

}  // namespace
}  // namespace mute::core
