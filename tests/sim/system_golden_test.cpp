// Golden pins: 64-bit hashes of the residual bits.
//
// run_anc_simulation: two configurations that reach every fixed tuning
// constant of the offline loop — the link monitor's default options, the
// FxLMS leakage and NLMS regularizer, the step-size schedule, the
// divergence guard's snapshot interval and the profiler's frame, hop and
// slot limit.
//
// The device path: run_device_simulation on one relay over RF, and the
// mesh (supervision off) through a relay-0 dropout that forces a handoff,
// so LancController's hold, retarget and install_converged all run. Their
// failover counters are pinned next to the hash.
//
// The device path runs the partitioned plant FIR, whose spectral products
// go through kernels::cmul_accumulate. Every clone of that kernel computes
// the reference kernel's bits (ctest kernels_have_no_fused_clone), so each
// pin carries one hash on every host and in every build.
//
// The device path's inputs: prepare_device_streams on a four-relay profile
// shaped like bench/e2e's mesh4_churn (RF on, relay-0 dropout), pinned per
// stream. The relays are synthesized in parallel, so this pins that relay
// k's stream comes from seed + 100 + k and lands in slot k.
//
// A refactor that keeps these values must keep the hashes; a deliberate
// behaviour change re-records them and says so.

#include <bit>
#include <cstdint>
#include <iterator>

#include <gtest/gtest.h>

#include "audio/generators.hpp"
#include "common/types.hpp"
#include "sim/mesh.hpp"
#include "sim/scenarios.hpp"
#include "sim/system.hpp"

namespace mute::sim {
namespace {

constexpr double kFs = 16000.0;

// FNV-1a over the IEEE bit pattern of every sample.
std::uint64_t bits_hash(const Signal& residual) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Sample s : residual) {
    const auto bits = std::bit_cast<std::uint32_t>(s);
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

TEST(SystemGolden, SupervisedProfilingRunOverRfIsPinned) {
  const auto scene = acoustics::Scene::paper_office();
  auto cfg = make_scheme_config(Scheme::kMuteHollow, scene, 7);
  cfg.duration_s = 3.0;
  cfg.use_rf_link = true;
  cfg.link_supervision = true;
  cfg.weight_norm_limit = 50.0;
  cfg.profiling = true;
  auto noise = make_noise(NoiseKind::kMaleVoice, kFs, 7);
  const auto r = run_anc_simulation(*noise, cfg);
  EXPECT_GT(r.profile_switches, 0u);  // the profiler acted
  EXPECT_EQ(bits_hash(r.residual), 0x825ec0cb52439f39ull);
}

TEST(SystemGolden, FaultScenarioRunIsPinned) {
  const auto scene = acoustics::Scene::paper_office();
  auto cfg = make_scheme_config(Scheme::kMuteHollow, scene, 11);
  cfg.duration_s = 3.0;
  apply_fault_scenario(cfg, FaultScenario::kJammerBurst, 1.5, 0.5);
  auto noise = make_noise(NoiseKind::kWhite, kFs, 11);
  const auto r = run_anc_simulation(*noise, cfg);
  EXPECT_GT(r.link_fault_samples, 0u);  // the monitor saw the fault
  EXPECT_EQ(bits_hash(r.residual), 0xff0be92388500c6cull);
}

TEST(SystemGolden, OneRelayDeviceRunOverRfIsPinned) {
  DeviceSimConfig cfg;
  cfg.duration_s = 4.0;
  cfg.seed = 5;
  cfg.device.calibration_s = 1.0;
  audio::WhiteNoiseSource noise(0.1, 505);
  const SystemResult r = run_device_simulation(noise, cfg);
  EXPECT_EQ(bits_hash(r.residual), 0x9cd64253bf193d06ull);
  EXPECT_EQ(r.handoff_count, 0u);
  EXPECT_EQ(r.device_hold_count, 0u);
  EXPECT_EQ(r.weight_rollbacks, 0u);
}

TEST(SystemGolden, MeshDropoutHandoffRunIsPinned) {
  DeviceSimConfig cfg;
  cfg.relay_positions = {{2.0, 2.5, 1.5}, {2.2, 2.5, 1.5}};
  cfg.duration_s = 7.0;
  cfg.seed = 11;
  cfg.device.calibration_s = 1.0;
  cfg.device.selection_period_s = 0.5;
  cfg.device.hold_timeout_s = 0.3;
  cfg.device.lanc.fxlms.mu = 0.3;
  cfg.device.lanc.fxlms.leakage = 2e-4;
  cfg.relay_faults = {
      make_fault_schedule(FaultScenario::kRelayDropout, 5.0, 1.5)};
  MeshSimConfig mesh;
  mesh.device_sim = cfg;
  mesh.spectrum_supervision = false;
  audio::WhiteNoiseSource noise(0.1, 1011);
  const SystemResult r = run_mesh_simulation(noise, mesh).system;
  ASSERT_GE(r.handoff_count, 1u);         // retarget ran
  ASSERT_GE(r.shadow_handoff_count, 1u);  // install_converged ran
  ASSERT_GE(r.device_hold_count, 1u);     // hold ran
  EXPECT_EQ(bits_hash(r.residual), 0xdac96b76c29e0952ull);
  EXPECT_EQ(r.handoff_count, 1u);
  EXPECT_EQ(r.device_hold_count, 1u);
  EXPECT_EQ(r.weight_rollbacks, 0u);
}

TEST(SystemGolden, FourRelayDeviceStreamsArePinned) {
  DeviceSimConfig cfg;
  cfg.duration_s = 3.0;
  cfg.seed = 13;
  for (std::size_t k = 0; k < 4; ++k) {
    cfg.relay_positions.push_back(
        {2.0 + 0.2 * static_cast<double>(k), 2.5, 1.5});
  }
  cfg.device.calibration_s = 0.25;
  cfg.relay_faults = {
      make_fault_schedule(FaultScenario::kRelayDropout, 1.5, 0.5)};
  audio::WhiteNoiseSource noise(0.1, 778);
  const DeviceStreams s = prepare_device_streams(noise, cfg);
  EXPECT_EQ(bits_hash(s.d), 0xd4051d59b62a0f52ull);
  constexpr std::uint64_t kRelayHash[] = {
      0x4cc767455726d580ull, 0x838186e748bf7312ull, 0xda4ae29a09b21de7ull,
      0x97ddbe6d348e6bbeull};
  ASSERT_EQ(s.x.size(), std::size(kRelayHash));
  for (std::size_t k = 0; k < s.x.size(); ++k) {
    EXPECT_EQ(bits_hash(s.x[k]), kRelayHash[k]) << "relay " << k;
  }
}

}  // namespace
}  // namespace mute::sim
