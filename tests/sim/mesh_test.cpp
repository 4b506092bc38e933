// Tests for the N-relay mesh runner (tentpole): with spectrum supervision
// off it must be bit-identical to run_device_simulation (the RF chains are
// streaming-stateful, so block streaming is not an approximation), the
// result must not depend on the control block size, and with supervision
// on a channel-pinned jammer is dodged by hopping — recovering cancellation
// on the SAME relay, no handoff spent.
#include <cmath>
#include <cstddef>

#include <gtest/gtest.h>

#include "acoustics/environment.hpp"
#include "audio/generators.hpp"
#include "common/math_utils.hpp"
#include "sim/mesh.hpp"
#include "sim/scenarios.hpp"
#include "sim/system.hpp"

namespace mute::sim {
namespace {

DeviceSimConfig two_relay_config() {
  DeviceSimConfig cfg;
  cfg.scene = acoustics::Scene::paper_office();
  cfg.relay_positions = {{2.0, 2.5, 1.5}, {2.2, 2.5, 1.5}};
  cfg.duration_s = 5.0;
  cfg.seed = 11;
  cfg.device.calibration_s = 1.0;
  cfg.device.selection_period_s = 0.5;
  cfg.device.hold_timeout_s = 0.3;
  cfg.device.lanc.fxlms.mu = 0.3;
  cfg.device.lanc.fxlms.leakage = 2e-4;
  return cfg;
}

double window_db(const SystemResult& r, double t0, double t1) {
  const auto i0 = static_cast<std::size_t>(t0 * r.sample_rate);
  const auto i1 = static_cast<std::size_t>(t1 * r.sample_rate);
  double num = 0.0, den = 0.0;
  for (std::size_t i = i0; i < i1 && i < r.residual.size(); ++i) {
    num += static_cast<double>(r.residual[i]) *
           static_cast<double>(r.residual[i]);
    den += static_cast<double>(r.disturbance[i]) *
           static_cast<double>(r.disturbance[i]);
  }
  return power_to_db(num / std::max(den, 1e-20));
}

TEST(MeshSim, SupervisionOffIsBitIdenticalToTheDeviceSim) {
  const DeviceSimConfig cfg = two_relay_config();

  audio::WhiteNoiseSource noise_a(0.1, 1011);
  const SystemResult device = run_device_simulation(noise_a, cfg);

  MeshSimConfig mesh;
  mesh.device_sim = cfg;
  mesh.spectrum_supervision = false;
  audio::WhiteNoiseSource noise_b(0.1, 1011);
  const MeshSimResult m = run_mesh_simulation(noise_b, mesh);

  ASSERT_EQ(m.system.residual.size(), device.residual.size());
  for (std::size_t i = 0; i < device.residual.size(); ++i) {
    ASSERT_EQ(m.system.residual[i], device.residual[i])
        << "mesh residual diverged from the device sim at sample " << i;
  }
  ASSERT_EQ(m.system.disturbance.size(), device.disturbance.size());
  for (std::size_t i = 0; i < device.disturbance.size(); ++i) {
    ASSERT_EQ(m.system.disturbance[i], device.disturbance[i]);
  }
  EXPECT_EQ(m.system.handoff_count, device.handoff_count);
  EXPECT_EQ(m.system.device_hold_count, device.device_hold_count);
  EXPECT_EQ(m.hop_count, 0u);
  EXPECT_EQ(m.tx_step_count, 0u);
}

TEST(MeshSim, ControlBlockSizeDoesNotChangeTheResult) {
  // Supervision ON but the scenario benign: the planner consults at every
  // control block yet never acts, so the residual must be invariant to
  // the block size — the streaming-stateful chain property, pinned.
  MeshSimConfig mesh;
  mesh.device_sim = two_relay_config();
  mesh.spectrum_supervision = true;
  mesh.control_block_s = 0.016;
  audio::WhiteNoiseSource noise_a(0.1, 1011);
  const MeshSimResult a = run_mesh_simulation(noise_a, mesh);
  EXPECT_EQ(a.hop_count, 0u) << "benign run must not hop";

  mesh.control_block_s = 0.064;
  audio::WhiteNoiseSource noise_b(0.1, 1011);
  const MeshSimResult b = run_mesh_simulation(noise_b, mesh);

  ASSERT_EQ(a.system.residual.size(), b.system.residual.size());
  for (std::size_t i = 0; i < a.system.residual.size(); ++i) {
    ASSERT_EQ(a.system.residual[i], b.system.residual[i])
        << "control block size leaked into the audio path at sample " << i;
  }
}

TEST(MeshSim, RelaysStartOnTheirHomeChannels) {
  MeshSimConfig mesh;
  mesh.device_sim = two_relay_config();
  mesh.spectrum_supervision = true;
  audio::WhiteNoiseSource noise(0.1, 1011);
  const MeshSimResult m = run_mesh_simulation(noise, mesh);
  ASSERT_EQ(m.final_channels.size(), 2u);
  // Benign run: the frequency-division assignment (relay k on channel k)
  // survives untouched, at nominal TX power.
  EXPECT_EQ(m.final_channels[0], 0u);
  EXPECT_EQ(m.final_channels[1], 1u);
  EXPECT_DOUBLE_EQ(m.final_tx_gain_db[0], 0.0);
  EXPECT_DOUBLE_EQ(m.final_tx_gain_db[1], 0.0);
}

TEST(MeshSim, HoppingDodgesAChannelPinnedJammerWithoutAHandoff) {
  // Acceptance (ISSUE tentpole, part 2): a jammer parked on the active
  // relay's home channel captures its FM receiver; the monitor flags it,
  // the planner hops the link to a clean channel, and cancellation
  // recovers on the SAME relay to within 3 dB of the pre-fault residual —
  // no handoff spent, the warm standby stays in reserve.
  constexpr double kFaultStart = 5.0;
  constexpr double kFaultLen = 3.0;
  constexpr double kDuration = 9.0;

  MeshSimConfig mesh;
  mesh.device_sim = two_relay_config();
  mesh.device_sim.duration_s = kDuration;
  // Relay 0's home channel is 0 (the planner's frequency-division start).
  mesh.device_sim.relay_faults = {make_fault_schedule(
      FaultScenario::kJammerBurst, kFaultStart, kFaultLen, /*channel=*/0)};
  // A hop resolves the fault in ~2 control rounds (~50 ms), far inside
  // the hold timeout; keep the shadow's fast handoff out of the race so
  // the test pins the hop path, not the failover path.
  mesh.device_sim.device.hold_timeout_s = 1.0;
  mesh.device_sim.device.enable_shadow = false;
  mesh.spectrum_supervision = true;

  audio::WhiteNoiseSource noise(0.1, 1011);
  const MeshSimResult m = run_mesh_simulation(noise, mesh);
  const SystemResult& r = m.system;

  const double pre_db = window_db(r, kFaultStart - 1.5, kFaultStart - 0.1);
  EXPECT_LT(pre_db, -3.0) << "never converged; the scenario is vacuous";

  // The planner acted: relay 0 left its jammed home channel.
  EXPECT_GE(m.hop_count, 1u);
  EXPECT_NE(m.final_channels[0], 0u);

  // The fault was survived WITHOUT spending the standby.
  EXPECT_EQ(r.handoff_count, 0u)
      << "hopping should keep the association; the standby is for dead "
         "relays, not dirty channels";
  EXPECT_GE(r.device_hold_count, 1u) << "the jammer was never even noticed";

  // Cancellation recovers on the hopped channel while the jammer is still
  // transmitting, within 1 s of onset, and holds to the end of the run.
  double recover_s = -1.0;
  for (double t = kFaultStart; t + 0.25 <= kDuration; t += 0.05) {
    if (window_db(r, t, t + 0.25) <= pre_db + 3.0) {
      recover_s = t - kFaultStart;
      break;
    }
  }
  ASSERT_GE(recover_s, 0.0) << "cancellation never recovered after the hop";
  EXPECT_LE(recover_s, 1.0);
  EXPECT_LT(window_db(r, kDuration - 1.0, kDuration), pre_db + 3.0);

  // And the ear was never meaningfully louder than passive meanwhile.
  // +3 dB margin (kNeverLouderMarginDb, the soak's margin): a jammer capture
  // feeds the filter demod garbage for the few ms of detection lag, a
  // transient a dropout does not have, so the +1 dB dropout bound is too
  // tight for the onset window.
  for (double t = 1.6; t + 0.25 <= kDuration; t += 0.25) {
    EXPECT_LT(window_db(r, t, t + 0.25), 3.0)
        << "louder than passive in window starting at t=" << t;
  }
}

TEST(MeshSim, FailoverDiagnosticsMatchTheDeviceSim) {
  // Supervision off, link supervision on, relay 0's feed dies mid-run: the
  // mesh must report every device diagnostic exactly as the device sim does,
  // so the scenario has to exercise the failover and link-fault tallies.
  DeviceSimConfig cfg = two_relay_config();
  cfg.duration_s = 6.0;
  cfg.device.link_supervision = true;
  cfg.relay_faults = {
      make_fault_schedule(FaultScenario::kRelayDropout, 3.0, 2.0)};

  audio::WhiteNoiseSource noise_a(0.1, 1011);
  const SystemResult device = run_device_simulation(noise_a, cfg);

  MeshSimConfig mesh;
  mesh.device_sim = cfg;
  mesh.spectrum_supervision = false;
  audio::WhiteNoiseSource noise_b(0.1, 1011);
  const SystemResult m = run_mesh_simulation(noise_b, mesh).system;

  ASSERT_GE(device.handoff_count, 1u) << "the dropout never forced a handoff";
  ASSERT_GE(device.link_fault_episodes, 1u) << "the dropout was never flagged";
  EXPECT_EQ(m.noncausal_taps, device.noncausal_taps);
  EXPECT_EQ(m.calibration_error_db, device.calibration_error_db);
  EXPECT_EQ(m.handoff_count, device.handoff_count);
  EXPECT_EQ(m.shadow_handoff_count, device.shadow_handoff_count);
  EXPECT_EQ(m.device_hold_count, device.device_hold_count);
  EXPECT_EQ(m.reacquisition_gap_s, device.reacquisition_gap_s);
  EXPECT_EQ(m.max_reacquisition_gap_s, device.max_reacquisition_gap_s);
  EXPECT_EQ(m.relay_active_s, device.relay_active_s);
  EXPECT_EQ(m.link_fault_samples, device.link_fault_samples);
  EXPECT_EQ(m.link_fault_episodes, device.link_fault_episodes);
  EXPECT_EQ(m.link_fault_flags, device.link_fault_flags);
  EXPECT_EQ(m.usable_lookahead_s, device.usable_lookahead_s);
}

TEST(MeshSim, SupervisionRequiresItsEvidenceSources) {
  MeshSimConfig mesh;
  mesh.device_sim = two_relay_config();
  mesh.spectrum_supervision = true;
  mesh.device_sim.device.link_supervision = false;  // no monitor evidence
  audio::WhiteNoiseSource noise(0.1, 1011);
  EXPECT_THROW(run_mesh_simulation(noise, mesh), PreconditionError);

  mesh.device_sim.device.link_supervision = true;
  mesh.device_sim.use_rf_link = false;  // nothing to retune
  EXPECT_THROW(run_mesh_simulation(noise, mesh), PreconditionError);
}

}  // namespace
}  // namespace mute::sim
