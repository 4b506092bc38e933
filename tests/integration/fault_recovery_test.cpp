// Acceptance tests for the fault-injection + graceful-degradation stack:
// a scripted 500 ms relay dropout mid-run must never leave the ear louder
// than passive (within 1 dB), and cancellation must recover within 2 s of
// link restoration. Full-system runs through room acoustics, the FM
// chain, link supervision and LANC.
#include <cmath>

#include <gtest/gtest.h>

#include "audio/generators.hpp"
#include "core/link_monitor.hpp"
#include "sim/never_louder.hpp"
#include "sim/scenarios.hpp"
#include "sim/system.hpp"

namespace mute::sim {
namespace {

constexpr double kFaultStart = 4.5;
constexpr double kFaultLen = 0.5;
constexpr double kDuration = 9.0;

SystemResult run_with_fault(FaultScenario scenario, std::uint64_t seed) {
  const auto scene = acoustics::Scene::paper_office();
  auto cfg = make_scheme_config(Scheme::kMuteHollow, scene, seed);
  cfg.duration_s = kDuration;
  apply_fault_scenario(cfg, scenario, kFaultStart, kFaultLen);
  audio::WhiteNoiseSource noise(0.1, seed + 1000);
  return run_anc_simulation(noise, cfg);
}

TEST(FaultRecovery, RelayDropoutDegradesGracefullyAndRecovers) {
  const auto r = run_with_fault(FaultScenario::kRelayDropout, 11);

  // Converged before the fault.
  const double pre_db = window_db(r, 3.0, 4.4);
  EXPECT_LT(pre_db, -6.0) << "system never converged; test is vacuous";

  // THE acceptance bound: during the outage the ear must never be
  // meaningfully louder than passive (no ANC at all). The anti-noise
  // fades out, so the residual approaches the disturbance from below.
  const double outage_db = window_db(r, kFaultStart, kFaultStart + kFaultLen);
  EXPECT_LT(outage_db, 1.0)
      << "residual during the dropout exceeded the passive ear by >1 dB";

  // Recovery: within 2 s of restoration some 0.5 s window is back within
  // 3 dB of the pre-fault cancellation.
  const double restored = kFaultStart + kFaultLen;
  double best_db = 1e9;
  for (double t = restored; t + 0.5 <= restored + 2.0; t += 0.1) {
    best_db = std::min(best_db, window_db(r, t, t + 0.5));
  }
  EXPECT_LE(best_db, pre_db + 3.0)
      << "cancellation did not re-converge within 2 s of link restoration";

  // Diagnostics tell the story: at least one episode covering most of the
  // 0.5 s outage, flagged as a noise burst, starting near t = 4.5.
  EXPECT_GE(r.link_fault_episodes, 1u);
  const double flagged_s =
      static_cast<double>(r.link_fault_samples) / r.sample_rate;
  EXPECT_GT(flagged_s, 0.3);
  EXPECT_LT(flagged_s, 1.5);
  EXPECT_TRUE(r.link_fault_flags & core::LinkFlags::kNoiseBurst);
  EXPECT_NEAR(r.first_fault_s, kFaultStart, 0.1);
  EXPECT_NEAR(r.last_recovery_s, kFaultStart + kFaultLen, 0.2);
}

TEST(FaultRecovery, JammerCaptureIsDetectedAndNotAmplified) {
  // A +6 dB co-channel jammer captures the FM discriminator: the received
  // reference collapses to near-silence. Supervision must flag it (as
  // silence and/or the entry/exit bursts) and keep the ear at or below
  // passive.
  const auto r = run_with_fault(FaultScenario::kJammerBurst, 12);
  EXPECT_GE(r.link_fault_episodes, 1u);
  EXPECT_LT(window_db(r, kFaultStart, kFaultStart + kFaultLen), 1.0);
  EXPECT_LT(window_db(r, kDuration - 1.5, kDuration),
            window_db(r, 3.0, 4.4) + 3.0);
}

TEST(FaultRecovery, SurvivableFaultsKeepCancelling) {
  // Impulse noise at the receiver is absorbed by FM demodulation +
  // decimation; the audio stays clean, so supervision should NOT trip and
  // cancellation should ride straight through the event window.
  const auto r = run_with_fault(FaultScenario::kImpulseNoise, 13);
  const double pre_db = window_db(r, 3.0, 4.4);
  const double during_db = window_db(r, kFaultStart, kFaultStart + kFaultLen);
  EXPECT_LT(pre_db, -6.0);
  EXPECT_LT(during_db, pre_db + 4.0)
      << "an inaudible RF impulse burst should not cost cancellation";
}

TEST(FaultRecovery, UnsupervisedDropoutIsTheMotivation) {
  // The contrast case: same dropout, supervision and guard disabled. The
  // demodulator garbage feeds FxLMS directly. This documents WHY the
  // subsystem exists — the unsupervised ear gets blasted during the
  // outage (louder than passive).
  const auto scene = acoustics::Scene::paper_office();
  auto cfg = make_scheme_config(Scheme::kMuteHollow, scene, 11);
  cfg.duration_s = 6.5;
  apply_fault_scenario(cfg, FaultScenario::kRelayDropout, kFaultStart,
                       kFaultLen);
  cfg.link_supervision = false;
  cfg.weight_norm_limit = 0.0;
  audio::WhiteNoiseSource noise(0.1, 1011);
  const auto r = run_anc_simulation(noise, cfg);
  EXPECT_GT(window_db(r, kFaultStart, kFaultStart + kFaultLen), 1.0)
      << "expected the unsupervised outage to be louder than passive";
  EXPECT_EQ(r.link_fault_episodes, 0u);  // nobody was watching
}

TEST(FaultRecovery, DiagnosticsSilentOnHealthyRun) {
  const auto scene = acoustics::Scene::paper_office();
  auto cfg = make_scheme_config(Scheme::kMuteHollow, scene, 11);
  cfg.duration_s = 4.0;
  cfg.link_supervision = true;  // armed, but the channel stays benign
  audio::WhiteNoiseSource noise(0.1, 7);
  const auto r = run_anc_simulation(noise, cfg);
  EXPECT_EQ(r.link_fault_episodes, 0u);
  EXPECT_EQ(r.link_fault_samples, 0u);
  EXPECT_EQ(r.link_fault_flags, 0u);
  EXPECT_DOUBLE_EQ(r.first_fault_s, -1.0);
  EXPECT_DOUBLE_EQ(r.last_recovery_s, -1.0);
}

}  // namespace
}  // namespace mute::sim
