// LancController's kFdBlock engine mode (DESIGN.md §13): the partitioned
// block engine must cancel like the pinned time-domain mode on the same
// tick/observe sequence, absorb its block pipeline inside the acoustic
// lead, survive retargets and profile switches, and tick allocation-free.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "audio/generators.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/lanc.hpp"

namespace mute::core {
namespace {

constexpr double kFs = kDefaultSampleRate;

LancOptions fd_options(std::size_t causal, std::size_t lead) {
  LancOptions opts;
  opts.fxlms.causal_taps = causal;
  opts.fxlms.noncausal_taps = lead;
  opts.fxlms.mu = 0.5;
  opts.engine = LancEngineKind::kFdBlock;
  return opts;
}

// Mini acoustic loop shared by the scenarios below: hse = delay-1 delta,
// d(t) = n(t), a(t) = y(t-1); returns last-quarter residual in dB rel.
// the 0.01 noise power (same convention as Lanc.TickObserveLoopCancels*).
double run_residual_db(LancController& lanc, std::size_t lead, int t_len,
                       unsigned seed) {
  Rng rng(seed);
  std::vector<float> n_sig(t_len), y(t_len, 0.0f);
  for (auto& v : n_sig) v = static_cast<float>(rng.gaussian(0.1));
  double err = 0.0;
  int count = 0;
  for (int t = 0; t < t_len; ++t) {
    const float x_adv =
        (t + static_cast<int>(lead) < t_len) ? n_sig[t + lead] : 0.0f;
    y[t] = lanc.tick(x_adv);
    const float d = n_sig[t];
    const float a = (t >= 1) ? y[t - 1] : 0.0f;
    const float e = d + a;
    lanc.observe_error(e);
    if (t > 3 * t_len / 4) {
      err += static_cast<double>(e) * static_cast<double>(e);
      ++count;
    }
  }
  return 10.0 * std::log10(err / count / 0.01);
}

TEST(LancFd, TickObserveLoopCancelsSimplePlant) {
  std::vector<double> hse(4, 0.0);
  hse[1] = 1.0;
  LancController lanc(hse, fd_options(32, 8));
  ASSERT_NE(lanc.fd_engine(), nullptr);
  EXPECT_EQ(lanc.engine_kind(), LancEngineKind::kFdBlock);
  EXPECT_LT(run_residual_db(lanc, 8, 40000, 13), -30.0);
}

TEST(LancFd, ResidualWithinTimeDomainTolerance) {
  // The §13 equivalence bound at controller level: FD residual within
  // +3 dB of the time-domain mode on the identical scenario (one-sided —
  // the per-bin normalization often converges deeper).
  std::vector<double> hse(4, 0.0);
  hse[1] = 1.0;

  LancOptions td = fd_options(32, 8);
  td.engine = LancEngineKind::kTimeDomain;
  LancController td_lanc(hse, td);
  LancController fd_lanc(hse, fd_options(32, 8));

  const double db_td = run_residual_db(td_lanc, 8, 40000, 13);
  const double db_fd = run_residual_db(fd_lanc, 8, 40000, 13);
  EXPECT_LT(db_td, -30.0);
  // Clamp at -60 dB: below that both residuals are float rounding noise
  // and their ratio is meaningless jitter.
  EXPECT_LT(std::max(db_fd, -60.0), std::max(db_td, -60.0) + 3.0);
}

TEST(LancFd, LookaheadSamplesCountsBlockPlusFutureTaps) {
  // The block pipeline consumes part of the lead; future taps keep the
  // rest. lookahead_samples() must report their sum — the full acoustic
  // lead the controller needs — not just the engine's tap window.
  LancOptions opts = fd_options(8, 13);
  LancController lanc({1.0}, opts);
  ASSERT_NE(lanc.fd_engine(), nullptr);
  EXPECT_EQ(lanc.fd_engine()->block_size() +
                lanc.fd_engine()->noncausal_taps(),
            13u);
  EXPECT_EQ(lanc.lookahead_samples(), 13u);
}

TEST(LancFd, RetargetToShorterLeadKeepsCancelling) {
  std::vector<double> hse(4, 0.0);
  hse[1] = 1.0;
  LancOptions opts = fd_options(32, 8);
  opts.fd_block = 4;
  LancController lanc(hse, opts);

  const int phase_len = 40000;
  EXPECT_LT(run_residual_db(lanc, 8, phase_len, 13), -30.0);

  // Hand off to a relay leading by 6 instead of 8 (shift = old - new).
  lanc.retarget(1, 6, 2, /*outgoing_flagged=*/false);
  EXPECT_EQ(lanc.lookahead_samples(), 6u);
  EXPECT_LT(run_residual_db(lanc, 6, phase_len, 14), -30.0);
}

TEST(LancFd, ProfilingSwitchesWithFdEngine) {
  // The profiling layer (snapshots, cache store/preload, pending-switch
  // apply) must run against the block engine's weight accessors without
  // tripping engine-kind asserts, and still detect the alternation.
  LancOptions opts = fd_options(16, 8);
  opts.profiling = true;
  LancController lanc({1.0}, opts);

  audio::ToneSource low(300.0, 0.4, kFs);
  audio::ToneSource high(3000.0, 0.4, kFs);
  const auto seg = static_cast<std::size_t>(kFs / 2);
  for (int rounds = 0; rounds < 6; ++rounds) {
    auto& src = (rounds % 2 == 0) ? low : high;
    const auto block = src.generate(seg);
    for (Sample v : block) {
      lanc.tick(v);
      lanc.observe_error(0.0f);
    }
  }
  EXPECT_GE(lanc.profile_count(), 2u);
  EXPECT_GE(lanc.profile_switch_count(), 2u);
}

TEST(LancFd, SteadyStateTickIsAllocationFree) {
  std::vector<double> hse(4, 0.0);
  hse[1] = 1.0;
  LancOptions opts = fd_options(256, 64);
  LancController lanc(hse, opts);

  Rng rng(99);
  // Warm up past the first blocks (primes every lazy path).
  for (int t = 0; t < 1024; ++t) {
    lanc.tick(static_cast<Sample>(rng.gaussian(0.1)));
    lanc.observe_error(static_cast<Sample>(rng.gaussian(0.05)));
  }
  RtAllocationGuard guard(RtAllocationGuard::Mode::kCount, "lanc-fd-tick");
  for (int t = 0; t < 1024; ++t) {
    lanc.tick(static_cast<Sample>(rng.gaussian(0.1)));
    lanc.observe_error(static_cast<Sample>(rng.gaussian(0.05)));
  }
  if (RtAllocationGuard::interposition_enabled()) {
    EXPECT_EQ(guard.allocations_since_entry(), 0u);
  }
}

}  // namespace
}  // namespace mute::core
