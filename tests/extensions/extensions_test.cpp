// Tests for the Section 6 / Section 4.4 extension features: multi-
// reference FxLMS, the block frequency-domain adaptive filter, the
// ear-canal model, head mobility, and the privacy scrambler.
#include <cmath>

#include <gtest/gtest.h>

#include "acoustics/ear_canal.hpp"
#include "adaptive/fdaf.hpp"
#include "adaptive/lms.hpp"
#include "adaptive/fxlms_multi.hpp"
#include "audio/generators.hpp"
#include "common/math_utils.hpp"
#include "common/rng.hpp"
#include "dsp/fir_filter.hpp"
#include "dsp/signal_ops.hpp"
#include "dsp/spectral.hpp"
#include "rf/relay.hpp"
#include "sim/scenarios.hpp"
#include "sim/system.hpp"

namespace mute {
namespace {

constexpr double kFs = 16000.0;

double eval_power_db(const sim::SystemResult& r) {
  const std::size_t skip = r.residual.size() / 2;
  const std::span<const Sample> res(r.residual.data() + skip,
                                    r.residual.size() - skip);
  const std::span<const Sample> dis(r.disturbance.data() + skip,
                                    r.disturbance.size() - skip);
  return amplitude_to_db(mute::dsp::rms(res) /
                         std::max(mute::dsp::rms(dis), 1e-12));
}

// ------------------------------------------------------------ multi-ref

TEST(MultiFxlms, CancelsTwoSimultaneousSources) {
  // Two independent sources, each with its own reference (relay) and its
  // own path to the error mic; a single-reference filter cannot cancel
  // both, the multi-reference engine can.
  Rng rng_a(1), rng_b(2);
  std::vector<double> hse(4, 0.0);
  hse[1] = 1.0;
  const int t_len = 60000;
  std::vector<float> na(t_len + 16), nb(t_len + 16);
  for (auto& v : na) v = static_cast<float>(rng_a.gaussian(0.1));
  for (auto& v : nb) v = static_cast<float>(rng_b.gaussian(0.1));
  // Paths source -> error mic.
  mute::dsp::FirFilter fda({0.0, 0.0, 0.8, 0.2});
  mute::dsp::FirFilter fdb({0.0, 0.0, 0.0, -0.6, 0.3});

  adaptive::FxlmsOptions opts;
  opts.causal_taps = 32;
  opts.noncausal_taps = 8;
  opts.mu = 0.4;
  adaptive::MultiFxlmsEngine multi(hse, opts, 2);
  mute::dsp::FirFilter plant(hse);

  double err = 0.0;
  int count = 0;
  for (int t = 0; t < t_len; ++t) {
    const Sample refs[] = {na[t + 8], nb[t + 8]};
    const Sample y = multi.step_output(refs);
    const float e = fda.process(na[t]) + fdb.process(nb[t]) +
                    plant.process(y);
    multi.adapt(e);
    if (t > t_len / 2) {
      err += static_cast<double>(e) * static_cast<double>(e);
      ++count;
    }
  }
  const double d_power = 0.01 * (0.68 + 0.45);  // rough disturbance power
  EXPECT_LT(10.0 * std::log10(err / count / d_power), -25.0);
}

TEST(MultiFxlms, SingleChannelMatchesFxlmsEngine) {
  Rng rng(3);
  std::vector<double> hse = {0.0, 1.0};
  adaptive::FxlmsOptions opts;
  opts.causal_taps = 16;
  opts.noncausal_taps = 4;
  opts.mu = 0.3;
  adaptive::FxlmsEngine single(hse, opts);
  adaptive::MultiFxlmsEngine multi(hse, opts, 1);
  for (int t = 0; t < 2000; ++t) {
    const Sample x = static_cast<Sample>(rng.gaussian(0.2));
    const Sample refs[] = {x};
    const Sample ys = single.step_output(x);
    const Sample ym = multi.step_output(refs);
    ASSERT_NEAR(ys, ym, 1e-6);
    const Sample e = static_cast<Sample>(rng.gaussian(0.05));
    single.adapt(e);
    multi.adapt(e);
  }
}

TEST(MultiFxlms, RejectsBadConfig) {
  EXPECT_THROW(adaptive::MultiFxlmsEngine({1.0}, adaptive::FxlmsOptions{}, 0),
               PreconditionError);
  adaptive::MultiFxlmsEngine ok({1.0}, adaptive::FxlmsOptions{}, 1);
  const Sample one[] = {0.1f};
  (void)one;
  Signal wrong(2, 0.1f);
  EXPECT_THROW(ok.push_references(wrong), PreconditionError);
}

// ----------------------------------------------------------------- FDAF

TEST(Fdaf, IdentifiesFirSystem) {
  Rng rng(5);
  std::vector<double> h(100, 0.0);
  for (std::size_t i = 0; i < h.size(); ++i) h[i] = rng.gaussian(0.2);
  mute::dsp::FirFilter plant(h);
  audio::WhiteNoiseSource noise(0.3, 7);
  const auto x = noise.generate(64000);
  Signal d(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) d[i] = plant.process(x[i]);

  adaptive::BlockFdaf fdaf({.taps = 128, .mu = 0.5});
  const auto err = fdaf.identify(x, d);
  // Converged error in the last quarter is tiny.
  const std::size_t q = err.size() / 4;
  const double tail = mute::dsp::rms(
      std::span<const Sample>(err.data() + err.size() - q, q));
  const double sig = mute::dsp::rms(d);
  EXPECT_LT(amplitude_to_db(tail / sig), -30.0);
  // Recovered weights match the plant.
  const auto w = fdaf.weights();
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_NEAR(w[i], h[i], 0.02);
  }
}

TEST(Fdaf, ConvergesFasterThanNlmsOnColoredInput) {
  // Reverb-like coloration: FDAF's per-bin normalization equalizes modes.
  Rng rng(9);
  mute::dsp::Biquad color = mute::dsp::Biquad::lowpass(800.0, 2.0, kFs);
  std::vector<double> h(64, 0.0);
  for (auto& v : h) v = rng.gaussian(0.2);
  mute::dsp::FirFilter plant(h);
  Signal x(64000), d(64000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = color.process(static_cast<Sample>(rng.gaussian(0.3)));
    d[i] = plant.process(x[i]);
  }
  adaptive::BlockFdaf fdaf({.taps = 64, .mu = 0.5});
  adaptive::AdaptiveFir nlms(64, 0.5);
  const auto err_f = fdaf.identify(x, d);
  Signal err_n(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) err_n[i] = nlms.step(x[i], d[i]);
  // Compare misalignment at the end.
  const double mis_f = adaptive::misalignment_db(fdaf.weights(), h);
  const double mis_n = adaptive::misalignment_db(nlms.weights(), h);
  EXPECT_LT(mis_f, mis_n + 1.0);  // at least as good, typically much better
}

TEST(Fdaf, ResetClearsState) {
  adaptive::BlockFdaf fdaf({.taps = 32});
  Signal x(32, 0.5f), d(32, 0.25f), e(32);
  fdaf.step_block(x, d, e);
  fdaf.reset();
  for (double w : fdaf.weights()) EXPECT_EQ(w, 0.0);
}

TEST(Fdaf, RejectsWrongBlockSize) {
  adaptive::BlockFdaf fdaf({.taps = 32});
  Signal x(16), d(16), e(16);
  EXPECT_THROW(fdaf.step_block(x, d, e), PreconditionError);
}

// ------------------------------------------------------------ ear canal

TEST(EarCanal, QuarterWaveResonanceBoostsNear3k) {
  acoustics::EarCanal canal(0.025, 0.0, kFs);
  const double f_res = 340.0 / (4.0 * 0.025);  // = 3400 Hz
  EXPECT_GT(canal.response_magnitude(f_res), 3.0);       // ~ +15 dB
  EXPECT_NEAR(canal.response_magnitude(200.0), 1.0, 0.3);
}

TEST(EarCanal, ZeroMismatchPreservesCancellation) {
  // If residual at the mic is zero, the drum hears (filtered) zero.
  acoustics::EarCanal canal(0.025, 0.0, kFs);
  Signal silence(4000, 0.0f);
  const auto drum = canal.apply(silence);
  EXPECT_LT(mute::dsp::rms(drum), 1e-9);
}

TEST(EarCanal, MismatchAddsLeakagePath) {
  acoustics::EarCanal exact(0.025, 0.0, kFs);
  acoustics::EarCanal sloppy(0.025, 1.0, kFs);
  audio::WhiteNoiseSource noise(0.2, 3);
  const auto x = noise.generate(8000);
  const auto a = exact.apply(x);
  const auto b = sloppy.apply(x);
  double diff = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    diff += std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
  }
  EXPECT_GT(diff / static_cast<double>(x.size()), 1e-4);
}

TEST(EarCanal, RejectsNonAnatomicalLength) {
  EXPECT_THROW(acoustics::EarCanal(0.2, 0.0, kFs), PreconditionError);
}

// ------------------------------------------------------- head mobility

TEST(Mobility, DriftDegradesCancellation) {
  const auto scene = acoustics::Scene::paper_office();
  auto run_with = [&](double drift) {
    auto cfg = sim::make_scheme_config(sim::Scheme::kMuteHollow, scene, 42);
    cfg.duration_s = 5.0;
    cfg.use_rf_link = false;
    cfg.head_drift_m = drift;
    auto noise = sim::make_noise(sim::NoiseKind::kWhite, kFs, 7);
    const auto r = sim::run_anc_simulation(*noise, cfg);
    return eval_power_db(r);
  };
  const double fixed = run_with(0.0);
  const double moving = run_with(0.5);
  EXPECT_GT(moving, fixed + 2.0);  // moving head = worse cancellation
}

// -------------------------------------------------------- privacy

TEST(Privacy, ScrambledLinkStillServesTheLegitimateReceiver) {
  rf::RelayConfig cfg;
  cfg.scramble = true;
  rf::RelayLink link(cfg, 31);
  // A mid-band tone survives the scramble/descramble round trip.
  const double sndr = link.measure_sndr_db(1500.0);
  EXPECT_GT(sndr, 10.0);
}

TEST(Privacy, EavesdropperHearsGarbage) {
  rf::RelayConfig cfg;
  cfg.scramble = true;
  rf::RelayLink link(cfg, 33);
  audio::ToneSource tone(1000.0, 0.4, cfg.audio_rate);
  const auto audio = tone.generate(32000);
  const auto heard = link.eavesdrop(audio);
  // The eavesdropped audio has its 1 kHz tone moved to fs/2 - 1k = 7 kHz.
  const std::span<const Sample> tail(heard.data() + 8000, 16384);
  const auto psd = mute::dsp::welch_psd(tail, cfg.audio_rate, 2048);
  EXPECT_GT(psd.power_at(7000.0), 20.0 * psd.power_at(1000.0));
}

TEST(Privacy, ScrambleOffIsTransparent) {
  rf::RelayConfig cfg;
  cfg.scramble = false;
  rf::RelayLink link(cfg, 35);
  EXPECT_GT(link.measure_sndr_db(1000.0), 25.0);
}

}  // namespace
}  // namespace mute
