#include <cmath>

#include <gtest/gtest.h>

#include "common/math_utils.hpp"
#include "dsp/signal_ops.hpp"
#include "dsp/spectral.hpp"
#include "eval/metrics.hpp"
#include "sim/passive.hpp"
#include "sim/scenarios.hpp"
#include "sim/system.hpp"
#include "sim/variants.hpp"

namespace mute::sim {
namespace {

constexpr double kFs = 16000.0;

TEST(Passive, LossGrowsWithFrequency) {
  PassiveShell shell(kFs);
  EXPECT_LT(shell.insertion_loss_db(100.0), 8.0);
  EXPECT_GT(shell.insertion_loss_db(4000.0), 18.0);
  EXPECT_GT(shell.insertion_loss_db(4000.0), shell.insertion_loss_db(500.0));
}

TEST(Passive, StreamingAttenuates) {
  PassiveShell shell(kFs);
  double peak_out = 0.0;
  for (int i = 0; i < 8000; ++i) {
    const double t = i / kFs;
    const Sample y = shell.process(
        static_cast<Sample>(std::sin(mute::kTwoPi * 3000.0 * t)));
    if (i > 4000) peak_out = std::max(peak_out, std::abs(static_cast<double>(y)));
  }
  EXPECT_LT(mute::amplitude_to_db(peak_out), -15.0);
}

TEST(Scenarios, SchemeNamesAreStable) {
  EXPECT_STREQ(scheme_name(Scheme::kMuteHollow), "MUTE_Hollow");
  EXPECT_STREQ(scheme_name(Scheme::kBoseOverall), "Bose_Overall");
}

TEST(Scenarios, BoseConfigMovesReferenceOntoHeadphone) {
  const auto scene = acoustics::Scene::paper_office();
  const auto mute_cfg = make_scheme_config(Scheme::kMuteHollow, scene, 1);
  const auto bose_cfg = make_scheme_config(Scheme::kBoseActive, scene, 1);
  const double d_mute =
      acoustics::distance(mute_cfg.scene.relay_mic, mute_cfg.scene.error_mic);
  const double d_bose =
      acoustics::distance(bose_cfg.scene.relay_mic, bose_cfg.scene.error_mic);
  EXPECT_GT(d_mute, 1.0);
  EXPECT_NEAR(d_bose, 0.015, 1e-6);
  EXPECT_FALSE(bose_cfg.use_rf_link);
  EXPECT_EQ(bose_cfg.max_noncausal_taps, 0u);
  EXPECT_TRUE(mute_cfg.use_rf_link);
}

TEST(Scenarios, PassiveFlagsFollowScheme) {
  const auto scene = acoustics::Scene::paper_office();
  EXPECT_FALSE(make_scheme_config(Scheme::kMuteHollow, scene, 1).passive_shell);
  EXPECT_TRUE(make_scheme_config(Scheme::kMutePassive, scene, 1).passive_shell);
  EXPECT_TRUE(make_scheme_config(Scheme::kBoseOverall, scene, 1).passive_shell);
}

TEST(Scenarios, AllNoiseKindsInstantiate) {
  for (auto kind : {NoiseKind::kWhite, NoiseKind::kMaleVoice,
                    NoiseKind::kFemaleVoice, NoiseKind::kConstruction,
                    NoiseKind::kMusic, NoiseKind::kMachineHum}) {
    auto src = make_noise(kind, kFs, 3);
    ASSERT_NE(src, nullptr);
    const auto x = src->generate(4000);
    EXPECT_EQ(x.size(), 4000u);
  }
}

TEST(System, MuteHollowCancelsWideband) {
  const auto scene = acoustics::Scene::paper_office();
  auto cfg = make_scheme_config(Scheme::kMuteHollow, scene, 42);
  cfg.duration_s = 5.0;
  cfg.use_rf_link = false;  // keep the unit test fast
  auto noise = make_noise(NoiseKind::kWhite, kFs, 7);
  const auto r = run_anc_simulation(*noise, cfg);
  const auto spec =
      eval::cancellation_spectrum(r.disturbance, r.residual, r.sample_rate, 2.5);
  EXPECT_LT(spec.average_db(100, 4000), -8.0);
  EXPECT_GT(r.noncausal_taps, 50u);
  EXPECT_GT(r.acoustic_lookahead_s, 5e-3);
}

TEST(System, ResultSignalsAreAligned) {
  const auto scene = acoustics::Scene::paper_office();
  auto cfg = make_scheme_config(Scheme::kMuteHollow, scene, 3);
  cfg.duration_s = 2.0;
  cfg.use_rf_link = false;
  auto noise = make_noise(NoiseKind::kWhite, kFs, 5);
  const auto r = run_anc_simulation(*noise, cfg);
  EXPECT_EQ(r.disturbance.size(), r.residual.size());
  EXPECT_EQ(r.reference.size(), r.residual.size());
  EXPECT_DOUBLE_EQ(r.sample_rate, kFs);
}

TEST(System, ExtraReferenceDelayReducesNoncausalTaps) {
  const auto scene = acoustics::Scene::paper_office();
  auto cfg = make_scheme_config(Scheme::kMuteHollow, scene, 3);
  cfg.duration_s = 2.0;
  cfg.use_rf_link = false;
  auto noise = make_noise(NoiseKind::kWhite, kFs, 5);
  const auto base = run_anc_simulation(*noise, cfg);
  cfg.extra_reference_delay_s = 5e-3;
  auto noise2 = make_noise(NoiseKind::kWhite, kFs, 5);
  const auto delayed = run_anc_simulation(*noise2, cfg);
  EXPECT_LT(delayed.noncausal_taps, base.noncausal_taps);
}

TEST(System, CalibrationQualityIsReported) {
  const auto scene = acoustics::Scene::paper_office();
  auto cfg = make_scheme_config(Scheme::kMuteHollow, scene, 9);
  cfg.duration_s = 2.0;
  cfg.use_rf_link = false;
  auto noise = make_noise(NoiseKind::kWhite, kFs, 5);
  const auto r = run_anc_simulation(*noise, cfg);
  EXPECT_LT(r.calibration_error_db, -15.0);
}

TEST(Variants, TabletopConfigDelaysFeedback) {
  const auto scene = acoustics::Scene::paper_office();
  const auto cfg = make_tabletop_config(scene, 1, 2.0);
  EXPECT_FALSE(cfg.use_rf_link);
  EXPECT_GT(cfg.error_feedback_delay_samples, 0u);
  EXPECT_LT(cfg.mu, 0.2);
}

TEST(Variants, SmartNoiseMaximizesLookahead) {
  const auto scene = acoustics::Scene::paper_office();
  const auto base = make_scheme_config(Scheme::kMuteHollow, scene, 1);
  const auto smart = make_smart_noise_config(scene, 1);
  const double d_base =
      acoustics::distance(base.scene.noise_source, base.scene.relay_mic);
  const double d_smart =
      acoustics::distance(smart.scene.noise_source, smart.scene.relay_mic);
  EXPECT_LT(d_smart, d_base);
}

TEST(Variants, EdgeServiceServesMultipleUsers) {
  const auto scene = acoustics::Scene::paper_office();
  std::vector<EdgeUser> users = {
      {{4.0, 2.0, 1.2}, {4.0, 1.97, 1.2}},
      {{4.5, 3.5, 1.2}, {4.5, 3.47, 1.2}},
  };
  auto noise = make_noise(NoiseKind::kWhite, kFs, 5);
  // Short runs: just prove both users get usable cancellation plumbing.
  auto result = run_edge_service(*noise, scene, users, 11, 0.5,
                                 /*duration_s=*/2.0);
  ASSERT_EQ(result.per_user.size(), 2u);
  for (const auto& r : result.per_user) {
    EXPECT_EQ(r.disturbance.size(), r.residual.size());
    EXPECT_GT(r.noncausal_taps, 0u);
  }
}

}  // namespace
}  // namespace mute::sim

// -- appended coverage: delayed-feedback variants stay stable -------------
namespace mute::sim {
namespace {

TEST(Variants, TabletopRunStaysStableAndCancels) {
  const auto scene = acoustics::Scene::paper_office();
  auto cfg = make_tabletop_config(scene, 3, 2.0);
  cfg.duration_s = 4.0;
  auto noise = make_noise(NoiseKind::kWhite, kFs, 5);
  const auto r = run_anc_simulation(*noise, cfg);
  const double resid = mute::dsp::rms(std::span<const Sample>(
      r.residual.data() + r.residual.size() / 2, r.residual.size() / 2));
  const double dist = mute::dsp::rms(r.disturbance);
  EXPECT_TRUE(std::isfinite(resid));
  EXPECT_LT(resid, dist);  // net cancellation despite delayed feedback
}

TEST(System, NonWhiteWorkloadsStayStable) {
  const auto scene = acoustics::Scene::paper_office();
  for (auto kind : {NoiseKind::kMusic, NoiseKind::kMaleVoice,
                    NoiseKind::kConstruction}) {
    auto cfg = make_scheme_config(Scheme::kMuteHollow, scene, 11);
    cfg.duration_s = 4.0;
    cfg.use_rf_link = false;
    auto noise = make_noise(kind, kFs, 21);
    const auto r = run_anc_simulation(*noise, cfg);
    const double resid = mute::dsp::rms(std::span<const Sample>(
        r.residual.data() + r.residual.size() / 2, r.residual.size() / 2));
    EXPECT_TRUE(std::isfinite(resid)) << noise_name(kind);
    EXPECT_LT(resid, 2.0 * mute::dsp::rms(r.disturbance)) << noise_name(kind);
  }
}

}  // namespace
}  // namespace mute::sim

// -- appended coverage: sim configuration knobs ---------------------------
namespace mute::sim {
namespace {

TEST(System, AmbientSpeakerRemovesSubsonicContent) {
  // With the ambient playback speaker modeled, the disturbance at the ear
  // has almost no energy below the speaker's ~90 Hz corner.
  const auto scene = acoustics::Scene::paper_office();
  auto cfg = make_scheme_config(Scheme::kMuteHollow, scene, 5);
  cfg.duration_s = 3.0;
  cfg.use_rf_link = false;
  auto run_with = [&](bool ambient) {
    cfg.ambient_speaker = ambient;
    auto noise = make_noise(NoiseKind::kWhite, kFs, 5);
    const auto r = run_anc_simulation(*noise, cfg);
    const auto psd = mute::dsp::welch_psd(
        std::span<const Sample>(r.disturbance.data() + 8000, 32768), kFs,
        1024);
    return psd.band_power(20.0, 60.0) / psd.band_power(500.0, 1000.0);
  };
  EXPECT_LT(run_with(true), 0.1 * run_with(false));
}

TEST(System, MuScheduleDoesNotBreakCancellation) {
  const auto scene = acoustics::Scene::paper_office();
  auto cfg = make_scheme_config(Scheme::kMuteHollow, scene, 5);
  // Eight seconds: the residual is measured over the second half, two to
  // four of the schedule's 2 s time constants in, where the step has
  // mostly settled toward mu_settle.
  cfg.duration_s = 8.0;
  cfg.use_rf_link = false;
  cfg.mu = 0.1;
  cfg.mu_settle = 0.02;
  auto noise = make_noise(NoiseKind::kWhite, kFs, 5);
  const auto r = run_anc_simulation(*noise, cfg);
  const double resid = mute::dsp::rms(std::span<const Sample>(
      r.residual.data() + r.residual.size() / 2, r.residual.size() / 2));
  EXPECT_LT(resid, 0.6 * mute::dsp::rms(r.disturbance));
}

TEST(System, ComponentsSumToResidualUpToMicNoise) {
  const auto scene = acoustics::Scene::paper_office();
  auto cfg = make_scheme_config(Scheme::kMuteHollow, scene, 5);
  cfg.duration_s = 2.0;
  cfg.use_rf_link = false;
  auto noise = make_noise(NoiseKind::kWhite, kFs, 5);
  const auto r = run_anc_simulation(*noise, cfg);
  ASSERT_EQ(r.ambient_at_ear.size(), r.residual.size());
  ASSERT_EQ(r.anti_at_ear.size(), r.residual.size());
  double err = 0.0;
  for (std::size_t i = 1000; i < r.residual.size(); ++i) {
    const double sum = static_cast<double>(r.ambient_at_ear[i]) +
                       static_cast<double>(r.anti_at_ear[i]);
    err += std::pow(sum - static_cast<double>(r.residual[i]), 2);
  }
  // Only the measurement microphone separates them: its (gentle) 30 Hz
  // high-pass response plus a tiny self-noise floor.
  EXPECT_LT(std::sqrt(err / static_cast<double>(r.residual.size())), 5e-3);
}

}  // namespace
}  // namespace mute::sim
