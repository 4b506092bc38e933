// Failover policy comparison across mesh sizes: an N-relay deployment
// where the active (longest-lookahead) relay's link fails mid-run for 3 s.
// Three policies per fault:
//
//   cold    — enable_handoff off: drop to kListening, wait out a selection
//             period, rebuild the controller from scratch (~1 s gap);
//   warm    — handoff to the ranked standby carrying remapped weights, but
//             pay the full hold timeout + engine-history refill (~0.33 s);
//   shadow  — the tentpole: the standby's filter pre-converged in the
//             background while the primary ran, so the handoff installs a
//             converged filter + primed history after only the fast-handoff
//             confirmation window (~0.03 s gap).
//
// Faults the RF chain absorbs (fade below FM threshold, impulse
// decimation, clock drift) never flag the monitor: all policies idle.
// A second table sweeps relay count (2/4/8) on the dropout fault — the
// shadow gap must not grow with mesh size (only one rival trickle-adapts,
// the budget is O(1) in N).
#include <cmath>
#include <cstdio>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "acoustics/environment.hpp"
#include "audio/generators.hpp"
#include "eval/report.hpp"
#include "sim/never_louder.hpp"
#include "sim/parallel_sweep.hpp"
#include "sim/scenarios.hpp"
#include "sim/system.hpp"

namespace {

using namespace mute;
using sim::window_db;

constexpr double kDuration = 12.0;
constexpr double kFaultStart = 6.0;
constexpr double kFaultLen = 3.0;

enum class Policy { kCold, kWarm, kShadow };
constexpr Policy kPolicies[] = {Policy::kShadow, Policy::kWarm, Policy::kCold};
const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kCold: return "cold";
    case Policy::kWarm: return "warm";
    case Policy::kShadow: return "shadow";
  }
  return "?";
}

/// Seconds after fault onset until a sliding 0.25 s window first comes
/// within 3 dB of the pre-fault cancellation (-1 if it never does).
double recovery_s(const sim::SystemResult& r, double pre_db) {
  for (double t = kFaultStart; t + 0.25 <= kDuration; t += 0.05) {
    if (window_db(r, t, t + 0.25) <= pre_db + 3.0) return t - kFaultStart;
  }
  return -1.0;
}

sim::SystemResult run_one(sim::FaultScenario scenario, std::size_t relays,
                          Policy policy) {
  sim::DeviceSimConfig cfg;
  cfg.scene = acoustics::Scene::paper_office();
  // Relays strung between the noise source (x=1.0) and the ear (x=5.0):
  // relay 0 leads by the most (the device's first choice), the rest are
  // confident runner-ups with progressively less lookahead.
  cfg.relay_positions.clear();
  for (std::size_t k = 0; k < relays; ++k) {
    cfg.relay_positions.push_back({2.0 + 0.2 * static_cast<double>(k),
                                   2.5, 1.5});
  }
  cfg.duration_s = kDuration;
  cfg.seed = 11;
  // Fault the active relay only; the others stay healthy standbys.
  cfg.relay_faults = {sim::make_fault_schedule(scenario, kFaultStart,
                                               kFaultLen)};
  cfg.device.calibration_s = 1.0;
  cfg.device.selection_period_s = 0.5;
  cfg.device.hold_timeout_s = 0.3;
  cfg.device.lanc.fxlms.mu = 0.3;
  cfg.device.lanc.fxlms.leakage = 2e-4;
  cfg.device.enable_handoff = policy != Policy::kCold;
  cfg.device.enable_shadow = policy == Policy::kShadow;
  audio::WhiteNoiseSource noise(0.1, 1011);
  return sim::run_device_simulation(noise, cfg);
}

void add_row(eval::Table& table, const std::string& label,
             const sim::SystemResult& r) {
  const double pre = window_db(r, kFaultStart - 1.5, kFaultStart - 0.1);
  const double row[] = {
      pre,
      window_db(r, kFaultStart, kFaultStart + 1.0),
      recovery_s(r, pre),
      window_db(r, kDuration - 2.0, kDuration),
      static_cast<double>(r.handoff_count),
      static_cast<double>(r.shadow_handoff_count),
      static_cast<double>(r.device_hold_count),
      r.max_reacquisition_gap_s,
  };
  table.add_row(label, row, 2);
}

}  // namespace

int main() {
  std::printf("Failover policies (%.0f s fault on the active relay at "
              "t = %.1f s; all other relays are healthy standbys)\n\n",
              kFaultLen, kFaultStart);

  const sim::FaultScenario scenarios[] = {
      sim::FaultScenario::kRelayDropout, sim::FaultScenario::kJammerBurst,
      sim::FaultScenario::kDeepFade, sim::FaultScenario::kImpulseNoise,
      sim::FaultScenario::kClockDrift,
  };
  constexpr std::size_t kScenarios = sizeof(scenarios) / sizeof(scenarios[0]);
  constexpr std::size_t kPolicyCount =
      sizeof(kPolicies) / sizeof(kPolicies[0]);
  const std::size_t relay_counts[] = {2, 4, 8};
  constexpr std::size_t kRelaySteps =
      sizeof(relay_counts) / sizeof(relay_counts[0]);

  const std::vector<std::string> cols = {
      "fault",    "pre_dB",  "outage_dB", "recover_s", "post_dB",
      "handoffs", "shadow",  "holds",     "max_gap_s"};

  // Sweep 1: every (fault, policy) at the canonical 4-relay mesh.
  // Sweep 2: dropout fault across mesh sizes for every policy.
  // All runs are independent (config + RNG seeds derived per index), so
  // they sweep in parallel and the tables fill from index order after.
  const std::size_t n_fault_runs = kScenarios * kPolicyCount;
  const std::size_t n_scale_runs = kRelaySteps * kPolicyCount;
  const auto results =
      sim::parallel_sweep(n_fault_runs + n_scale_runs, [&](std::size_t i) {
        if (i < n_fault_runs) {
          return run_one(scenarios[i % kScenarios], 4,
                         kPolicies[i / kScenarios]);
        }
        const std::size_t j = i - n_fault_runs;
        return run_one(sim::FaultScenario::kRelayDropout,
                       relay_counts[j % kRelaySteps],
                       kPolicies[j / kRelaySteps]);
      });

  for (std::size_t p = 0; p < kPolicyCount; ++p) {
    eval::Table table(cols);
    for (std::size_t s = 0; s < kScenarios; ++s) {
      add_row(table, sim::fault_scenario_name(scenarios[s]),
              results[p * kScenarios + s]);
    }
    std::printf("-- policy: %s (4 relays) --\n", policy_name(kPolicies[p]));
    table.print(std::cout);
    std::printf("\n");
  }

  // Re-acquisition gap vs relay count (dropout fault).
  eval::Table scale({"policy", "gap_2relay_s", "gap_4relay_s",
                     "gap_8relay_s"});
  for (std::size_t p = 0; p < kPolicyCount; ++p) {
    double row[kRelaySteps];
    for (std::size_t c = 0; c < kRelaySteps; ++c) {
      row[c] = results[n_fault_runs + p * kRelaySteps + c]
                   .max_reacquisition_gap_s;
    }
    scale.add_row(policy_name(kPolicies[p]), row, 3);
  }
  std::printf("-- re-acquisition gap vs mesh size (relay dropout) --\n");
  scale.print(std::cout);

  std::printf(
      "\nExpected shape: on faults the monitor flags (dropout, jammer),\n"
      "shadow rows hand off after the fast confirmation window only\n"
      "(max_gap_s ~ 0.03 s, shadow == handoffs), warm rows pay the full\n"
      "hold timeout + history refill (~0.33 s), and cold rows pay a\n"
      "selection period of silence plus cold reconvergence (~1 s). The\n"
      "shadow gap is flat in relay count: exactly one rival trickle-adapts\n"
      "regardless of mesh size. Faults the RF chain absorbs (fade,\n"
      "impulse, drift) leave every policy idle.\n");
  return 0;
}
