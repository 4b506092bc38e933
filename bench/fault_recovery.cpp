// Robustness evaluation: what happens to the ear when the wireless
// reference chain fails mid-run? Each scripted RF fault (relay power
// loss, co-channel jammer, deep fade, impulse noise, clock drift) hits a
// converged MUTE system at t = 4.5 s for 0.5 s. With link supervision the
// device must degrade gracefully — freeze adaptation, fade the anti-noise
// out, never play louder than passive — and re-converge after the link
// returns. The unsupervised columns show why the monitor exists: the
// demodulator garbage drives FxLMS straight into the error mic.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <span>
#include <vector>

#include "audio/generators.hpp"
#include "eval/report.hpp"
#include "sim/never_louder.hpp"
#include "sim/parallel_sweep.hpp"
#include "sim/scenarios.hpp"
#include "sim/system.hpp"

namespace {

using namespace mute;
using sim::window_db;

constexpr double kDuration = 10.0;
constexpr double kFaultStart = 4.5;
constexpr double kFaultLen = 0.5;

/// Seconds after link restoration until a sliding 0.25 s window first
/// comes within 3 dB of the pre-fault cancellation (-1 if it never does).
double recovery_s(const sim::SystemResult& r, double pre_db) {
  const double restored = kFaultStart + kFaultLen;
  for (double t = restored; t + 0.25 <= kDuration; t += 0.05) {
    if (window_db(r, t, t + 0.25) <= pre_db + 3.0) return t - restored;
  }
  return -1.0;
}

sim::SystemResult run_one(sim::FaultScenario scenario, bool supervised) {
  const auto scene = acoustics::Scene::paper_office();
  auto cfg = sim::make_scheme_config(sim::Scheme::kMuteHollow, scene, 11);
  cfg.duration_s = kDuration;
  sim::apply_fault_scenario(cfg, scenario, kFaultStart, kFaultLen);
  if (!supervised) {
    cfg.link_supervision = false;
    cfg.weight_norm_limit = 0.0;
  }
  audio::WhiteNoiseSource noise(0.1, 1011);
  return sim::run_anc_simulation(noise, cfg);
}

}  // namespace

int main() {
  std::printf("Fault injection & graceful degradation (0.5 s fault at "
              "t = %.1f s)\n\n", kFaultStart);

  const sim::FaultScenario scenarios[] = {
      sim::FaultScenario::kRelayDropout, sim::FaultScenario::kJammerBurst,
      sim::FaultScenario::kDeepFade, sim::FaultScenario::kImpulseNoise,
      sim::FaultScenario::kClockDrift,
  };

  eval::Table sup({"fault", "pre_dB", "outage_dB", "recover_s", "post_dB",
                   "episodes", "flagged_s", "rollbacks"});
  eval::Table unsup({"fault", "pre_dB", "outage_dB", "post_dB"});
  // Independent (scenario, supervision) simulations — seeds fixed inside
  // run_one — so all 10 sweep in parallel; rows are emitted in index order.
  constexpr std::size_t kScenarios = sizeof(scenarios) / sizeof(scenarios[0]);
  const auto results = sim::parallel_sweep(2 * kScenarios, [&](std::size_t i) {
    return run_one(scenarios[i % kScenarios], /*supervised=*/i < kScenarios);
  });
  for (std::size_t s = 0; s < kScenarios; ++s) {
    const auto scenario = scenarios[s];
    {
      const auto& r = results[s];
      const double pre = window_db(r, 3.0, 4.4);
      const double row[] = {
          pre,
          window_db(r, kFaultStart, kFaultStart + kFaultLen),
          recovery_s(r, pre),
          window_db(r, kDuration - 2.0, kDuration),
          static_cast<double>(r.link_fault_episodes),
          static_cast<double>(r.link_fault_samples) / r.sample_rate,
          static_cast<double>(r.weight_rollbacks),
      };
      sup.add_row(sim::fault_scenario_name(scenario), row, 2);
    }
    {
      const auto& r = results[kScenarios + s];
      const double row[] = {
          window_db(r, 3.0, 4.4),
          window_db(r, kFaultStart, kFaultStart + kFaultLen),
          window_db(r, kDuration - 2.0, kDuration),
      };
      unsup.add_row(sim::fault_scenario_name(scenario), row, 2);
    }
  }

  std::printf("-- link supervision + weight-norm guard armed --\n");
  sup.print(std::cout);
  std::printf("\n-- same faults, supervision disabled --\n");
  unsup.print(std::cout);

  std::printf(
      "\nExpected shape: supervised outage_dB stays at or below 0 (never\n"
      "louder than passive; ~0 means the anti-noise faded out and the ear\n"
      "got the passive disturbance), recover_s well under 2 s, and post_dB\n"
      "back near pre_dB. Unsupervised, the dropout/jammer/fade rows feed\n"
      "demodulator garbage to FxLMS: outage_dB goes positive (louder than\n"
      "no ANC at all) and post_dB shows the lasting damage. Fades below\n"
      "the FM threshold and impulse bursts that decimation absorbs leave\n"
      "the audio clean - those rows degrade little even unsupervised.\n");
  return 0;
}
