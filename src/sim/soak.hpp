#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/mesh.hpp"
#include "sim/scenarios.hpp"

namespace mute::sim {

/// Deterministic chaos-soak harness (tentpole, part 3): drive randomized
/// fault-episode schedules across an N-relay mesh and assert the system's
/// survival invariants. Everything is derived from one seed — a failing
/// soak reproduces exactly from its (seed, config) pair.

/// One randomized fault episode applied to one relay.
struct SoakEpisode {
  std::size_t relay = 0;
  FaultScenario kind = FaultScenario::kNone;
  double start_s = 0.0;
  double duration_s = 0.0;
  int jammer_channel = -1;  // >= 0: channel-pinned jammer (planner can dodge)
};

/// Randomized episodes over the post-calibration window. The generator
/// always leaves at least one relay un-faulted at any instant, so a
/// qualified standby exists and "bounded re-acquisition" is a fair ask.
inline constexpr std::size_t kSoakEpisodes = 5;

struct SoakConfig {
  std::size_t relay_count = 4;   // 2..8 supported
  double duration_s = 12.0;
  std::uint64_t seed = 1;
};

/// Outcome of one soak run, with per-invariant verdicts.
struct SoakReport {
  std::uint64_t seed = 0;
  std::size_t relay_count = 0;
  double duration_s = 0.0;
  std::vector<SoakEpisode> episodes;

  // Invariant 1: never meaningfully louder than passive, scored by
  // worst_half_overlapping_window (sim/never_louder.hpp).
  // `worst_window_t_s` is the START of the worst window, in seconds into
  // the record.
  bool never_louder = true;
  double worst_window_excess_db = -1e9;  // max over windows of (res - dist)
  double worst_window_t_s = 0.0;

  // Invariant 2: bounded re-acquisition.
  bool gap_bounded = true;
  double max_reacquisition_gap_s = 0.0;

  // Invariant 3: allocation-free steady state.
  bool allocation_clean = true;
  bool allocation_tracked = false;  // false => invariant vacuously true
  std::uint64_t allocating_ticks = 0;
  std::uint64_t total_ticks = 0;

  // Context for the report artifact.
  std::size_t handoff_count = 0;
  std::size_t shadow_handoff_count = 0;
  std::size_t hold_count = 0;
  std::size_t hop_count = 0;
  std::size_t tx_step_count = 0;
  std::size_t link_fault_episodes = 0;

  bool passed() const { return never_louder && gap_bounded && allocation_clean; }
};

/// Generate the deterministic episode schedule for (config.seed). Exposed
/// for tests: the schedule is a pure function of the config.
std::vector<SoakEpisode> make_soak_episodes(const SoakConfig& config);

/// Run one chaos soak: build the mesh scenario, inject the episode
/// schedule, run the mesh simulation, and evaluate the invariants.
SoakReport run_chaos_soak(const SoakConfig& config);

/// Serialize reports as a JSON array (the CI soak artifact).
std::string soak_reports_json(const std::vector<SoakReport>& reports);

}  // namespace mute::sim
