#include <cmath>

#include <gtest/gtest.h>

#include "audio/generators.hpp"
#include "common/math_utils.hpp"
#include "common/rng.hpp"
#include "acoustics/environment.hpp"
#include "acoustics/propagation.hpp"
#include "core/filter_cache.hpp"
#include "core/gcc_phat.hpp"
#include "core/lanc.hpp"
#include "core/profile.hpp"
#include "core/relay_select.hpp"
#include "core/timing.hpp"
#include "dsp/delay_line.hpp"
#include "dsp/fir_filter.hpp"

namespace mute::core {
namespace {

constexpr double kFs = 16000.0;

// ------------------------------------------------------------- timing

TEST(Timing, BudgetSumsComponents) {
  LatencyBudget b{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(b.total_us(), 100.0);
  EXPECT_DOUBLE_EQ(b.total_s(), 100e-6);
}

TEST(Timing, UsableLookaheadSubtractsEverything) {
  LatencyBudget b{25.0, 25.0, 25.0, 25.0};  // 100 us
  EXPECT_NEAR(usable_lookahead_s(3e-3, b, 0.5e-3), 2.4e-3, 1e-12);
  EXPECT_LT(usable_lookahead_s(30e-6, b), 0.0);  // headphone misses deadline
}

TEST(Timing, LookaheadTapsFloorsAndClamps) {
  EXPECT_EQ(lookahead_taps(-1.0, kFs), 0u);
  EXPECT_EQ(lookahead_taps(1e-3, kFs), 16u);
  EXPECT_EQ(lookahead_taps(0.99e-3, kFs), 15u);
}

TEST(Timing, Equation4OneMeterIsThreeMs) {
  EXPECT_NEAR(acoustics::lookahead_s(1.0, 2.0), 2.94e-3, 0.05e-3);
}

// ----------------------------------------------------------- gcc-phat

TEST(GccPhat, FindsKnownIntegerLag) {
  Rng rng(1);
  const std::size_t n = 8000;
  Signal ref(n), delayed(n, 0.0f);
  for (auto& v : ref) v = static_cast<Sample>(rng.gaussian(0.3));
  const std::size_t lag = 57;
  for (std::size_t i = lag; i < n; ++i) delayed[i] = ref[i - lag];
  const auto r = gcc_phat(ref, delayed, kFs);
  EXPECT_NEAR(r.peak_lag_s, static_cast<double>(lag) / kFs, 1.0 / kFs);
  EXPECT_GT(r.peak_value, 0.3);
}

TEST(GccPhat, NegativeLagDetected) {
  Rng rng(2);
  const std::size_t n = 8000;
  Signal a(n), b(n, 0.0f);
  for (auto& v : a) v = static_cast<Sample>(rng.gaussian(0.3));
  // b LEADS a: a is the delayed copy.
  const std::size_t lag = 33;
  for (std::size_t i = lag; i < n; ++i) b[i - lag] = a[i];
  const auto r = gcc_phat(a, b, kFs);
  EXPECT_NEAR(r.peak_lag_s, -static_cast<double>(lag) / kFs, 1.0 / kFs);
}

TEST(GccPhat, RobustToReverb) {
  // The PHAT weighting should keep the direct-path peak dominant even when
  // the delayed copy passes through a multipath-ish FIR.
  Rng rng(3);
  const std::size_t n = 16000;
  Signal ref(n);
  for (auto& v : ref) v = static_cast<Sample>(rng.gaussian(0.3));
  std::vector<double> multipath(300, 0.0);
  multipath[40] = 1.0;
  multipath[90] = 0.4;
  multipath[200] = 0.2;
  mute::dsp::FirFilter f(multipath);
  Signal delayed(n);
  for (std::size_t i = 0; i < n; ++i) delayed[i] = f.process(ref[i]);
  const auto r = gcc_phat(ref, delayed, kFs);
  EXPECT_NEAR(r.peak_lag_s, 40.0 / kFs, 2.0 / kFs);
}

TEST(GccPhat, LagWindowRespected) {
  Rng rng(4);
  Signal a(4000), b(4000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<Sample>(rng.gaussian());
    b[i] = static_cast<Sample>(rng.gaussian());
  }
  const auto r = gcc_phat(a, b, kFs, 0.002);
  for (double lag : r.lag_s) {
    EXPECT_LE(std::abs(lag), 0.002 + 1e-9);
  }
}

TEST(GccPhat, RejectsMismatchedLengths) {
  Signal a(1000), b(999);
  EXPECT_THROW(gcc_phat(a, b, kFs), PreconditionError);
}

// ----------------------------------------------------------- profiles

TEST(Profile, SignatureDistanceIsSymmetricAndZeroOnSelf) {
  ProfileSignature a{{0.5, 0.3, 0.2}, -20.0};
  ProfileSignature b{{0.2, 0.3, 0.5}, -30.0};
  EXPECT_DOUBLE_EQ(a.distance(a), 0.0);
  EXPECT_DOUBLE_EQ(a.distance(b), b.distance(a));
  EXPECT_GT(a.distance(b), 0.0);
}

TEST(Profile, ExtractorSeparatesToneBands) {
  SignatureExtractor ex(kFs, 256, 8);
  audio::ToneSource low(300.0, 0.5, kFs), high(3500.0, 0.5, kFs);
  const auto sig_low = ex.extract(low.generate(256));
  const auto sig_high = ex.extract(high.generate(256));
  EXPECT_GT(sig_low.distance(sig_high), 0.5);
}

TEST(Profile, NyquistEnergyCountsTowardTheLastBand) {
  // Regression: band edges are half-open [f0, f1), so the exact-Nyquist
  // bin (f == fs/2 == the last band's upper edge) satisfied no band's
  // `f < f1` and its power silently vanished from the fractions — which
  // are normalized by TOTAL bin power, so a near-Nyquist source summed
  // to far below 1. The last band closes at Nyquist now.
  SignatureExtractor ex(kFs, 256, 8);
  Signal frame(256);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame[i] = (i % 2 == 0) ? 0.5f : -0.5f;  // cos(pi*n): the Nyquist tone
  }
  const auto sig = ex.extract(frame);
  double sum = 0.0;
  for (const double v : sig.band_fraction) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(sig.band_fraction.back(), 0.9);
}

TEST(Profile, ExtractorWorkspaceReuseIsStateless) {
  // The window/FFT workspace is built once and reused every call; a
  // frame's signature must not depend on what was extracted before it.
  SignatureExtractor ex(kFs, 256, 8);
  audio::ToneSource low(300.0, 0.5, kFs), high(3500.0, 0.5, kFs);
  const auto lo_frame = low.generate(256);
  const auto first = ex.extract(lo_frame);
  ex.extract(high.generate(256));
  const auto again = ex.extract(lo_frame);
  ASSERT_EQ(first.band_fraction.size(), again.band_fraction.size());
  for (std::size_t b = 0; b < first.band_fraction.size(); ++b) {
    EXPECT_DOUBLE_EQ(first.band_fraction[b], again.band_fraction[b]);
  }
  EXPECT_DOUBLE_EQ(first.level_db, again.level_db);
}

TEST(Profile, ClassifierAssignsSilenceToProfileZero) {
  ProfileClassifier pc;
  ProfileSignature quiet{{0.1, 0.9}, -80.0};
  EXPECT_EQ(pc.classify(quiet), 0u);
}

TEST(Profile, ClassifierSeparatesDistinctSounds) {
  ProfileClassifier pc;
  ProfileSignature speechish{{0.7, 0.2, 0.1, 0.0}, -20.0};
  ProfileSignature hissish{{0.0, 0.1, 0.2, 0.7}, -20.0};
  const auto id1 = pc.classify(speechish);
  const auto id2 = pc.classify(hissish);
  EXPECT_NE(id1, id2);
  EXPECT_NE(id1, 0u);
  EXPECT_NE(id2, 0u);
  // Stable on re-presentation.
  EXPECT_EQ(pc.classify(speechish), id1);
  EXPECT_EQ(pc.classify(hissish), id2);
}

TEST(Profile, ClassifierBoundedBySlotLimit) {
  // Eight mutually distant (one-hot) spectra would each open a profile;
  // the slot limit caps the count, the silence slot included.
  ProfileClassifier pc;
  for (int i = 0; i < 10; ++i) {
    std::vector<double> bands(8, 0.0);
    bands[i % 8] = 1.0;
    pc.classify(ProfileSignature{bands, -10.0 - i});
  }
  EXPECT_EQ(pc.profile_count(), ProfileClassifier::kMaxProfiles);
}

TEST(FilterCache, StoreLoadRoundTrip) {
  FilterCache cache;
  const std::vector<double> w = {1.0, 2.0, 3.0};
  cache.store({0, 5}, w);
  ASSERT_TRUE(cache.contains({0, 5}));
  const auto loaded = cache.load({0, 5});
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ((*loaded)[2], 3.0);
  EXPECT_FALSE(cache.load({0, 6}).has_value());
}

TEST(FilterCache, OverwriteReplaces) {
  FilterCache cache;
  cache.store({2, 1}, std::vector<double>{1.0});
  cache.store({2, 1}, std::vector<double>{9.0, 9.0});
  EXPECT_EQ(cache.load({2, 1})->size(), 2u);
}

TEST(FilterCache, RelayAxisKeepsEntriesSeparate) {
  // The same profile id converged against two different relays must hit
  // two different entries — loading relay 0's filter for relay 2 would
  // replay the wrong alignment (the whole point of the composite key).
  FilterCache cache;
  cache.store({0, 3}, std::vector<double>{1.0, 0.0});
  cache.store({2, 3}, std::vector<double>{0.0, 1.0});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ((*cache.load({0, 3}))[0], 1.0);
  EXPECT_EQ((*cache.load({2, 3}))[1], 1.0);
  // And the axes must not commute: (relay=3, profile=0) is not (0, 3).
  EXPECT_FALSE(cache.contains({3, 0}));
}

TEST(FilterCache, LoadedSpanSurvivesOtherKeyInserts) {
  // Lifetime contract (see FilterCache): a loaded span must stay valid
  // across store() calls for OTHER keys, even across the rehash that the
  // inserts force — unordered_map nodes never move, and the vector's heap
  // buffer moves with its node.
  FilterCache cache;
  const std::vector<double> w = {4.0, 5.0, 6.0};
  cache.store({0, 0}, w);
  const auto span = cache.load({0, 0});
  ASSERT_TRUE(span.has_value());
  const double* data_before = span->data();
  for (std::size_t k = 1; k < 200; ++k) {
    cache.store({k, k}, w);  // enough inserts to rehash several times
  }
  EXPECT_EQ(span->data(), data_before);
  EXPECT_EQ((*span)[0], 4.0);
  EXPECT_EQ((*span)[2], 6.0);
}

TEST(FilterCache, SameKeyOverwriteIsTheInvalidationHazard) {
  // The flip side of the contract: a same-key store() may grow the mapped
  // vector's buffer, so the old span is dead. Callers must reload — pin
  // the documented behaviour by checking the reloaded span sees the new
  // payload (dereferencing the stale span would be UB, so we don't).
  FilterCache cache;
  cache.store({0, 0}, std::vector<double>{1.0});
  ASSERT_TRUE(cache.load({0, 0}).has_value());
  cache.store({0, 0}, std::vector<double>{7.0, 8.0, 9.0, 10.0});
  const auto reloaded = cache.load({0, 0});
  ASSERT_TRUE(reloaded.has_value());
  ASSERT_EQ(reloaded->size(), 4u);
  EXPECT_EQ((*reloaded)[3], 10.0);
}

// ----------------------------------------------------------- selection

TEST(RelaySelect, PicksLargestPositiveLookahead) {
  Rng rng(7);
  const std::size_t n = 8000;
  Signal source(n);
  for (auto& v : source) v = static_cast<Sample>(rng.gaussian(0.3));
  // Relay 0 leads ear by 80 samples, relay 1 by 20, relay 2 lags by 30.
  auto delayed_by = [&](int lag) {
    Signal out(n, 0.0f);
    for (std::size_t i = 0; i < n; ++i) {
      const std::ptrdiff_t j = static_cast<std::ptrdiff_t>(i) - lag;
      if (j >= 0 && j < static_cast<std::ptrdiff_t>(n)) {
        out[i] = source[static_cast<std::size_t>(j)];
      }
    }
    return out;
  };
  const Signal ear = delayed_by(100);
  std::vector<Signal> relays = {delayed_by(20), delayed_by(80),
                                delayed_by(130)};
  const auto sel = select_relay(relays, ear, kFs);
  ASSERT_TRUE(sel.chosen.has_value());
  EXPECT_EQ(sel.chosen->relay_index, 0u);
  EXPECT_NEAR(sel.chosen->lookahead_s, 80.0 / kFs, 2.0 / kFs);
  // The lagging relay measured negative lookahead.
  EXPECT_LT(sel.all[2].lookahead_s, 0.0);
}

TEST(RelaySelect, AbstainsWhenAllRelaysLag) {
  Rng rng(9);
  const std::size_t n = 8000;
  Signal source(n);
  for (auto& v : source) v = static_cast<Sample>(rng.gaussian(0.3));
  auto delayed_by = [&](int lag) {
    Signal out(n, 0.0f);
    for (std::size_t i = static_cast<std::size_t>(lag); i < n; ++i) {
      out[i] = source[i - lag];
    }
    return out;
  };
  const Signal ear = delayed_by(0);
  std::vector<Signal> relays = {delayed_by(50), delayed_by(90)};
  const auto sel = select_relay(relays, ear, kFs);
  EXPECT_FALSE(sel.chosen.has_value());
}

TEST(RelaySelect, StreamingWrapperFiresPeriodically) {
  Rng rng(11);
  RelaySelector selector(2, kFs, 0.25);
  const auto period = static_cast<std::size_t>(0.25 * kFs);
  std::size_t fired = 0;
  Signal src(3 * period);
  for (auto& v : src) v = static_cast<Sample>(rng.gaussian(0.3));
  for (std::size_t t = 0; t < src.size(); ++t) {
    const Sample lead = src[t];
    const Sample lag = (t >= 40) ? src[t - 40] : 0.0f;
    const Sample relay_samples[] = {lead, lag};
    if (selector.push(relay_samples, lag)) ++fired;
  }
  EXPECT_EQ(fired, 3u);
  ASSERT_TRUE(selector.current().has_value());
  ASSERT_TRUE(selector.current()->chosen.has_value());
  EXPECT_EQ(selector.current()->chosen->relay_index, 0u);
}

TEST(RelaySelect, StandbyScoreCreditsLookaheadOnlyUpToSaturation) {
  // The shadow budget goes to the best standby_score: confidence weights
  // trust, and lookahead is credited only up to the tap-cap saturation
  // point — a huge lead past it must not outrank a more confident relay.
  const double needed = 0.01;
  EXPECT_DOUBLE_EQ(standby_score({0, 0.005, 0.8}, needed), 0.8 * 0.5);
  EXPECT_DOUBLE_EQ(standby_score({0, 0.01, 0.8}, needed), 0.8);
  EXPECT_DOUBLE_EQ(standby_score({0, 0.05, 0.8}, needed), 0.8)
      << "lead beyond the saturation point buys no score";
  EXPECT_GT(standby_score({0, 0.01, 0.9}, needed),
            standby_score({0, 0.05, 0.8}, needed));
  // Non-positive lookahead is useless regardless of confidence.
  EXPECT_DOUBLE_EQ(standby_score({0, 0.0, 1.0}, needed), 0.0);
  EXPECT_DOUBLE_EQ(standby_score({0, -0.01, 1.0}, needed), 0.0);
  EXPECT_THROW(standby_score({0, 0.01, 0.8}, 0.0), PreconditionError);
}

// --------------------------------------------------------------- LANC

TEST(Lanc, TickObserveLoopCancelsSimplePlant) {
  Rng rng(13);
  LancOptions opts;
  opts.fxlms.causal_taps = 32;
  opts.fxlms.noncausal_taps = 8;
  opts.fxlms.mu = 0.5;
  std::vector<double> hse(4, 0.0);
  hse[1] = 1.0;
  LancController lanc(hse, opts);
  const int t_len = 40000;
  std::vector<float> n_sig(t_len), y(t_len, 0.0f);
  for (auto& v : n_sig) v = static_cast<float>(rng.gaussian(0.1));
  double err = 0.0;
  int count = 0;
  for (int t = 0; t < t_len; ++t) {
    const float x_adv = (t + 8 < t_len) ? n_sig[t + 8] : 0.0f;
    y[t] = lanc.tick(x_adv);
    const float d = n_sig[t];
    const float a = (t >= 1) ? y[t - 1] : 0.0f;
    const float e = d + a;
    lanc.observe_error(e);
    if (t > t_len / 2) {
      err += static_cast<double>(e) * static_cast<double>(e);
      ++count;
    }
  }
  EXPECT_LT(10.0 * std::log10(err / count / 0.01), -30.0);
}

TEST(Lanc, ProfilingDetectsAlternatingSources) {
  LancOptions opts;
  opts.fxlms.causal_taps = 16;
  opts.fxlms.noncausal_taps = 4;
  opts.profiling = true;
  LancController lanc({1.0}, opts);

  audio::ToneSource low(300.0, 0.4, kFs);
  audio::ToneSource high(3000.0, 0.4, kFs);
  // Alternate 0.5 s of each source; feed as the advanced reference.
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

TEST(Lanc, ResetRestoresInitialState) {
  LancOptions opts;
  opts.fxlms.causal_taps = 8;
  LancController lanc({1.0}, opts);
  lanc.tick(1.0f);
  lanc.observe_error(0.5f);
  lanc.reset();
  EXPECT_EQ(lanc.profile_switch_count(), 0u);
  for (double w : lanc.engine().weights()) EXPECT_EQ(w, 0.0);
}

TEST(Lanc, LookaheadSamplesReportsN) {
  LancOptions opts;
  opts.fxlms.causal_taps = 8;
  opts.fxlms.noncausal_taps = 13;
  LancController lanc({1.0}, opts);
  EXPECT_EQ(lanc.lookahead_samples(), 13u);
}

}  // namespace
}  // namespace mute::core

// -- appended coverage: profile-cache benefit (the Figure 17 mechanism) ---
namespace mute::core {
namespace {

TEST(Lanc, CachedFiltersBeatReconvergenceOnAlternatingSources) {
  // Two exclusive alternating "sources" with different channels and
  // spectra; after the caches mature, the post-transition error with
  // profiling ON must be clearly below the OFF baseline in the segment
  // interiors (the cached filter starts converged).
  const double fs = 16000.0;
  const int period = static_cast<int>(2.0 * fs);
  const int half = period / 2;
  const int t_len = static_cast<int>(20.0 * fs);

  std::vector<double> hd_a(64, 0.0);
  hd_a[16] = 0.9;
  hd_a[30] = 0.3;
  std::vector<double> hd_b(64, 0.0);
  hd_b[16] = -0.7;
  hd_b[40] = 0.4;
  std::vector<double> hse(4, 0.0);
  hse[1] = 1.0;

  auto run_variant = [&](bool profiling) {
    LancOptions opts;
    opts.fxlms.causal_taps = 64;
    opts.fxlms.noncausal_taps = 16;
    opts.fxlms.mu = 0.1;
    opts.profiling = profiling;
    LancController lanc(hse, opts);
    mute::dsp::FirFilter plant(hse), fda(hd_a), fdb(hd_b);
    mute::dsp::Biquad bp = mute::dsp::Biquad::bandpass(700.0, 0.7, fs);
    Rng ra(7), rb(8);
    // Pre-generate gated sources (x needs 16 samples of lookahead).
    std::vector<float> sa(t_len + 32), sb(t_len + 32);
    for (int t = 0; t < t_len + 32; ++t) {
      const bool a_on = (t % period) < half;
      sa[t] = a_on ? bp.process(static_cast<float>(ra.gaussian(0.3))) : 0.0f;
      sb[t] = a_on ? 0.0f : static_cast<float>(rb.gaussian(0.25));
    }
    double tail_err = 0.0;
    int tail_count = 0;
    for (int t = 0; t < t_len; ++t) {
      const float x_adv = sa[t + 16] + sb[t + 16];
      const float y = lanc.tick(x_adv);
      const float e = fda.process(sa[t]) + fdb.process(sb[t]) +
                      plant.process(y);
      lanc.observe_error(e);
      // Segment interiors of the last 8 s (skip first 0.5 s per segment).
      const int in_seg = t % half;
      if (t > t_len - static_cast<int>(8.0 * fs) &&
          in_seg > static_cast<int>(0.5 * fs)) {
        tail_err += static_cast<double>(e) * static_cast<double>(e);
        ++tail_count;
      }
    }
    return 10.0 * std::log10(tail_err / tail_count);
  };

  const double off_db = run_variant(false);
  const double on_db = run_variant(true);
  EXPECT_LT(on_db, off_db - 2.0)
      << "profiling ON " << on_db << " dB vs OFF " << off_db << " dB";
}

TEST(Lanc, RetargetStoresOutgoingAndPreloadsCachedWeights) {
  // Handoff caching round trip: leaving a healthy relay stores its
  // converged weights under (relay, profile); arriving at a relay whose
  // key is cached preloads those weights over the remapped ones.
  LancOptions opts;
  opts.fxlms.causal_taps = 4;
  opts.fxlms.noncausal_taps = 4;
  opts.profiling = false;  // pin profile id 0 so keys differ by relay only
  LancController lanc({1.0}, opts);

  const std::vector<double> w0 = {1, 2, 3, 4, 5, 6, 7, 8};
  lanc.engine().set_weights(w0);
  lanc.retarget(1, 4, 0, /*outgoing_flagged=*/false);  // stores w0 @ (0,0)
  EXPECT_EQ(lanc.relay(), 1u);
  EXPECT_EQ(lanc.engine().weights(), w0);  // identity remap, no (1,0) entry

  const std::vector<double> w1 = {8, 7, 6, 5, 4, 3, 2, 1};
  lanc.engine().set_weights(w1);
  lanc.retarget(0, 4, 0, /*outgoing_flagged=*/false);  // stores w1 @ (1,0)
  EXPECT_EQ(lanc.relay(), 0u);
  EXPECT_EQ(lanc.engine().weights(), w0)
      << "cached (0,0) weights must beat the remapped carry-over";

  lanc.retarget(1, 4, 0, /*outgoing_flagged=*/false);
  EXPECT_EQ(lanc.engine().weights(), w1);
}

TEST(Lanc, RetargetNeverCachesAFlaggedLink) {
  // Fault-aware caching: weights adapted on a flagged (faulted) link are
  // garbage and must not overwrite the relay's last healthy cache entry.
  LancOptions opts;
  opts.fxlms.causal_taps = 4;
  opts.fxlms.noncausal_taps = 4;
  opts.profiling = false;
  LancController lanc({1.0}, opts);

  const std::vector<double> w0 = {1, 2, 3, 4, 5, 6, 7, 8};
  lanc.engine().set_weights(w0);
  lanc.retarget(1, 4, 0, /*outgoing_flagged=*/false);  // stores w0 @ (0,0)

  const std::vector<double> garbage(8, 100.0);
  lanc.engine().set_weights(garbage);
  lanc.retarget(0, 4, 0, /*outgoing_flagged=*/true);  // must NOT store (1,0)
  EXPECT_EQ(lanc.engine().weights(), w0) << "healthy (0,0) entry preloads";

  // Coming back to relay 1: no cache entry may exist, so the weights ride
  // along unchanged — the garbage never resurfaces from the cache.
  lanc.retarget(1, 4, 0, /*outgoing_flagged=*/false);
  EXPECT_EQ(lanc.engine().weights(), w0);
}

}  // namespace
}  // namespace mute::core

// -- appended coverage: geometry -> lookahead property sweep --------------
namespace mute::core {
namespace {

class GeometryLookaheadTest : public ::testing::TestWithParam<double> {};

TEST_P(GeometryLookaheadTest, CloserRelayMeansMoreLookahead) {
  // Move the relay along the source->ear line: the closer it sits to the
  // source, the larger the Equation-4 lookahead and the non-causal tap
  // budget. Monotone by construction of the geometry, verified through
  // the full channel-builder path.
  const double frac = GetParam();  // 0 = at source, 1 = at ear
  mute::acoustics::Scene scene = mute::acoustics::Scene::paper_office();
  const auto src = scene.noise_source;
  const auto ear = scene.error_mic;
  scene.relay_mic = {src.x + frac * (ear.x - src.x),
                     src.y + frac * (ear.y - src.y),
                     src.z + frac * (ear.z - src.z) + 0.05};
  const auto cs = mute::acoustics::build_channels(scene);
  static double prev_lookahead = 1e9;
  if (frac == 0.1) prev_lookahead = 1e9;
  EXPECT_LT(cs.lookahead_s, prev_lookahead);
  prev_lookahead = cs.lookahead_s;
  if (frac < 0.9) {
    EXPECT_GT(cs.lookahead_s, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(RelayPositions, GeometryLookaheadTest,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

}  // namespace
}  // namespace mute::core
