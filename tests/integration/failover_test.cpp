// Acceptance tests for warm-standby failover: kill the active relay of a
// two-relay deployment while a healthy positive-lookahead standby exists.
// The device must hand the association over through State::kHandoff —
// without a kListening round trip — re-establish cancellation within
// 3 dB of the pre-fault residual in 0.5 s, and never leave the ear
// meaningfully louder than passive at any point of the run. Full-system:
// room acoustics, one FM chain per relay, link supervision, LANC.
#include <cmath>
#include <optional>

#include <gtest/gtest.h>

#include "acoustics/environment.hpp"
#include "audio/generators.hpp"
#include "sim/never_louder.hpp"
#include "sim/scenarios.hpp"
#include "sim/system.hpp"

namespace mute::sim {
namespace {

constexpr double kDuration = 10.0;
constexpr double kFaultStart = 6.0;
constexpr double kFaultLen = 3.0;

/// One shared full-system run (the sim is seconds of wall clock; every
/// test in this file asserts against the same record).
const SystemResult& failover_run() {
  static const SystemResult r = [] {
    DeviceSimConfig cfg;
    cfg.scene = acoustics::Scene::paper_office();
    // Both relays between the noise source and the ear; relay 0 leads by
    // more and is the device's first choice, relay 1 the warm standby.
    cfg.relay_positions = {{2.0, 2.5, 1.5}, {2.2, 2.5, 1.5}};
    cfg.duration_s = kDuration;
    cfg.seed = 11;
    // Kill relay 0's carrier for the rest of the run.
    cfg.relay_faults = {
        make_fault_schedule(FaultScenario::kRelayDropout, kFaultStart,
                            kFaultLen)};
    cfg.device.calibration_s = 1.0;
    cfg.device.selection_period_s = 0.5;
    cfg.device.hold_timeout_s = 0.3;
    cfg.device.lanc.fxlms.mu = 0.3;
    cfg.device.lanc.fxlms.leakage = 2e-4;
    cfg.device.enable_handoff = true;
    audio::WhiteNoiseSource noise(0.1, 1011);
    return run_device_simulation(noise, cfg);
  }();
  return r;
}

TEST(Failover, HandsOffToWarmStandbyWithoutRelisten) {
  const auto& r = failover_run();

  // Converged on relay 0 before the fault.
  const double pre_db = window_db(r, kFaultStart - 1.5, kFaultStart - 0.1);
  EXPECT_LT(pre_db, -3.0) << "system never converged; test is vacuous";
  EXPECT_GT(r.relay_active_s[0], 3.0);

  // The fault must be detected (hold) and resolved by handoff, not by
  // dropping back to kListening. The gap spans from leaving kRunning to
  // re-entering it: detection is near-instant, the hold timeout is 0.3 s
  // and the handoff settle (engine history refill) is tens of ms — while
  // a kListening round trip adds at least a selection period on top
  // (>= 0.8 s total here).
  EXPECT_GE(r.device_hold_count, 1u);
  EXPECT_GE(r.handoff_count, 1u);
  EXPECT_GT(r.reacquisition_gap_s, 0.0);
  EXPECT_LT(r.reacquisition_gap_s, 0.45)
      << "re-acquisition took a kListening round trip, not a warm handoff";

  // The standby carried the rest of the run.
  EXPECT_GT(r.relay_active_s[1], 2.0);
}

TEST(Failover, RecoversWithinHalfASecondOfTheFault) {
  const auto& r = failover_run();
  const double pre_db = window_db(r, kFaultStart - 1.5, kFaultStart - 0.1);

  // Within 0.5 s of the fault ONSET (detection + hold timeout + settle
  // included) some 0.25 s window is back within 3 dB of pre-fault.
  double recover_s = -1.0;
  for (double t = kFaultStart; t + 0.25 <= kDuration; t += 0.05) {
    if (window_db(r, t, t + 0.25) <= pre_db + 3.0) {
      recover_s = t - kFaultStart;
      break;
    }
  }
  ASSERT_GE(recover_s, 0.0) << "cancellation never recovered";
  EXPECT_LE(recover_s, 0.5);

  // And it holds: the run ends cancelling on the standby.
  EXPECT_LT(window_db(r, kDuration - 1.5, kDuration), pre_db + 3.0);
}

/// Four-relay run for the shadow pre-convergence acceptance: same scene
/// and fault, but enough rivals that the standby scorer has a real choice
/// and the runner-up's shadow filter has had seconds to pre-converge.
const SystemResult& shadow_run() {
  static const SystemResult r = [] {
    DeviceSimConfig cfg;
    cfg.scene = acoustics::Scene::paper_office();
    cfg.relay_positions = {{2.0, 2.5, 1.5},
                           {2.2, 2.5, 1.5},
                           {2.4, 2.5, 1.5},
                           {2.6, 2.5, 1.5}};
    cfg.duration_s = 12.0;
    cfg.seed = 11;
    cfg.relay_faults = {make_fault_schedule(FaultScenario::kRelayDropout,
                                            kFaultStart, kFaultLen)};
    cfg.device.calibration_s = 1.0;
    cfg.device.selection_period_s = 0.5;
    cfg.device.hold_timeout_s = 0.3;
    cfg.device.lanc.fxlms.mu = 0.3;
    cfg.device.lanc.fxlms.leakage = 2e-4;
    audio::WhiteNoiseSource noise(0.1, 1011);
    return run_device_simulation(noise, cfg);
  }();
  return r;
}

TEST(Failover, ShadowPreConvergenceCutsTheGapToTensOfMilliseconds) {
  // ISSUE acceptance (tentpole, part 1): with the standby's shadow filter
  // trickle-adapted in the background, the handoff installs an already
  // converged filter and skips the hold timeout — the re-acquisition gap
  // collapses from ~0.33 s (warm standby, cold filter) to tens of ms.
  const auto& r = shadow_run();

  const double pre_db = window_db(r, kFaultStart - 1.5, kFaultStart - 0.1);
  EXPECT_LT(pre_db, -3.0) << "system never converged; test is vacuous";

  EXPECT_GE(r.shadow_handoff_count, 1u)
      << "handoff fell back to the cold-filter path; the shadow either "
         "never converged or was disqualified";
  EXPECT_LE(r.max_reacquisition_gap_s, 0.05)
      << "shadow handoff did not beat the hold timeout";

  // The fast path is not allowed to trade depth for speed: recovery is as
  // deep as the warm path's, and quick.
  double recover_s = -1.0;
  for (double t = kFaultStart; t + 0.25 <= 12.0; t += 0.05) {
    if (window_db(r, t, t + 0.25) <= pre_db + 3.0) {
      recover_s = t - kFaultStart;
      break;
    }
  }
  ASSERT_GE(recover_s, 0.0) << "cancellation never recovered";
  EXPECT_LE(recover_s, 0.25);
  EXPECT_LT(window_db(r, 10.5, 12.0), pre_db + 3.0);

  for (double t = 1.6; t + 0.25 <= 12.0; t += 0.25) {
    EXPECT_LT(window_db(r, t, t + 0.25), 1.0)
        << "ear louder than passive in window starting at t=" << t;
  }
}

TEST(Failover, EarNeverExceedsPassive) {
  const auto& r = failover_run();
  // Every 0.25 s window after the device starts running (calibration 1 s
  // + one selection period) must stay at or below passive (+1 dB margin,
  // as in the fault-recovery acceptance tests) — through convergence, the
  // fault, the hold fade-out, and the handoff refill.
  for (double t = 1.6; t + 0.25 <= kDuration; t += 0.25) {
    EXPECT_LT(window_db(r, t, t + 0.25), 1.0)
        << "ear louder than passive in window starting at t=" << t;
  }
}

}  // namespace
}  // namespace mute::sim
