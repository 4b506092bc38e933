// Golden pin for run_anc_simulation: 64-bit hashes of the residual bits
// for two configurations that reach every fixed tuning constant of the
// offline loop — the link monitor's default options, the FxLMS leakage
// and NLMS regularizer, the step-size schedule, the divergence guard's
// snapshot interval and the profiler's frame, hop and slot limit. A
// refactor that keeps these values must keep the hashes; a deliberate
// behaviour change re-records them and says so.

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/types.hpp"
#include "sim/scenarios.hpp"
#include "sim/system.hpp"

namespace mute::sim {
namespace {

constexpr double kFs = 16000.0;

// FNV-1a over the IEEE bit pattern of every sample.
std::uint64_t residual_hash(const Signal& residual) {
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
  EXPECT_EQ(residual_hash(r.residual), 0x825ec0cb52439f39ull);
}

TEST(SystemGolden, FaultScenarioRunIsPinned) {
  const auto scene = acoustics::Scene::paper_office();
  auto cfg = make_scheme_config(Scheme::kMuteHollow, scene, 11);
  cfg.duration_s = 3.0;
  apply_fault_scenario(cfg, FaultScenario::kJammerBurst, 1.5, 0.5);
  auto noise = make_noise(NoiseKind::kWhite, kFs, 11);
  const auto r = run_anc_simulation(*noise, cfg);
  EXPECT_GT(r.link_fault_samples, 0u);  // the monitor saw the fault
  EXPECT_EQ(residual_hash(r.residual), 0xff0be92388500c6cull);
}

}  // namespace
}  // namespace mute::sim
