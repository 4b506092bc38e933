#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <variant>
#include <vector>

#include "sim/scenarios.hpp"

namespace mute::sim {

/// Deterministic soak harnesses for the never-louder-than-passive promise
/// (DESIGN.md §12, §14), one verdict for both: the mesh soak scores one
/// unit per seed of randomized relay faults, the fleet soak one unit per
/// tenant of a churned mixed-profile fleet. A failing soak reproduces
/// exactly from its config.

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

/// The mesh soak: `seeds` runs, unit k on seed `seed + k`.
struct SoakConfig {
  std::size_t relay_count = 4;  // 2..8 supported
  double duration_s = 12.0;
  std::uint64_t seed = 1000;
  std::size_t seeds = 4;
};

/// The fleet soak: `devices` tenants served for `sim_seconds`, admitted
/// from one stream seeded with `seed`.
struct FleetSoakConfig {
  std::size_t devices = 1024;
  double sim_seconds = 4.0;
  std::uint64_t seed = 1;
};

/// One scored unit: a mesh seed or a fleet tenant.
struct SoakUnit {
  std::uint64_t id = 0;  // mesh: the seed; fleet: the tenant id
  /// Loudest never-louder window, dB re passive (-inf: no window scored),
  /// and its START in seconds from the unit's own t = 0 (mesh: the
  /// record's first sample; fleet: admission).
  double worst_excess_db = -std::numeric_limits<double>::infinity();
  double worst_window_start_s = 0.0;
  double served_s = 0.0;
  std::size_t handoffs = 0;
  std::size_t holds = 0;
  bool passed = true;

  // Mesh only.
  double max_reacquisition_gap_s = 0.0;
  std::uint64_t allocating_ticks = 0;
  std::uint64_t total_ticks = 0;
  std::size_t shadow_handoffs = 0;
  std::size_t hops = 0;
  std::size_t tx_steps = 0;
  std::size_t fault_episodes = 0;
  std::vector<SoakEpisode> schedule;

  // Fleet only.
  std::size_t profile = 0;
  std::size_t arena_high_water = 0;  // bytes
};

/// Outcome of one soak: every judged unit, in id order, and the run-level
/// contracts.
struct SoakVerdict {
  std::variant<SoakConfig, FleetSoakConfig> config;
  std::vector<SoakUnit> units;

  // Every unit's worst window within kNeverLouderMarginDb.
  bool never_louder = true;
  // Mesh: no seed's out-of-kRunning gap too long.
  bool gap_bounded = true;
  // Mesh: at most a sliver of each seed's ticks allocate; fleet: worker
  // lanes never reach the heap. Vacuous when the operator-new
  // interposition is compiled out (allocation_tracked false).
  bool allocation_clean = true;
  bool allocation_tracked = false;
  std::uint64_t worker_heap_allocations = 0;  // fleet only

  bool mesh() const { return std::holds_alternative<SoakConfig>(config); }
  std::size_t failed() const {
    std::size_t n = 0;
    for (const SoakUnit& u : units) n += u.passed ? 0 : 1;
    return n;
  }
  /// A soak that judged no unit proves nothing, so it does not pass.
  bool passed() const {
    return !units.empty() && never_louder && gap_bounded && allocation_clean;
  }
};

/// Generate the deterministic episode schedule for (config.seed). Exposed
/// for tests: the schedule is a pure function of the config.
std::vector<SoakEpisode> make_soak_episodes(const SoakConfig& config);

/// The mesh soak: per seed, build the mesh scenario, inject the episode
/// schedule, run the mesh simulation and score it. Seeds run in parallel
/// (sim::parallel_sweep), bit-identically on any worker count.
SoakVerdict run_chaos_soak(const SoakConfig& config);

/// The fleet soak: admit the population, churn it (every 64 blocks drain
/// the oldest sixteenth and admit replacements) until `sim_seconds` are
/// served, and judge every tenant that scored a window. Throws
/// PreconditionError for a span too short to score one window.
SoakVerdict run_fleet_soak(const FleetSoakConfig& config);

/// Serialize a verdict as the CI soak artifact: one JSON schema for both
/// soaks, numbers at max_digits10, null for "no window scored".
std::string soak_verdict_json(const SoakVerdict& verdict);

}  // namespace mute::sim
