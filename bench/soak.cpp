// The never-louder-than-passive promise checked under chaos (DESIGN.md
// §12, §14):
//
//   soak mesh  [--relays N] [--duration S] [--seeds K] [--json PATH]
//   soak fleet [--devices N] [--sim-seconds S] [--seed K] [--json PATH]
//
// mesh scores one unit per seed (1000, 1001, ...) of randomized relay
// faults (sim::run_chaos_soak); fleet scores one unit per tenant of a
// churned mixed-profile fleet (sim::run_fleet_soak). MUTE_SWEEP_THREADS
// sets the worker count; the bits do not depend on it. Prints the 10
// worst units, optionally writes the JSON verdict CI uploads, and exits 0
// when every invariant held, 1 on a violation, 2 on a usage error: no or
// an unknown mode, a flag of the other mode, an unparsable, non-finite or
// non-positive value, or a configuration the soak rejects (not 2..8
// relays, a span too short to score a window).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "sim/never_louder.hpp"
#include "sim/soak.hpp"

namespace {

using mute::sim::SoakUnit;
using mute::sim::SoakVerdict;

void print_worst_units(const SoakVerdict& v) {
  std::vector<SoakUnit> worst = v.units;
  std::stable_sort(worst.begin(), worst.end(),
                   [](const SoakUnit& a, const SoakUnit& b) {
                     return a.worst_excess_db > b.worst_excess_db;
                   });
  worst.resize(std::min<std::size_t>(worst.size(), 10));
  std::printf("worst %zu of %zu units (margin %+.1f dB):\n", worst.size(),
              v.units.size(), mute::sim::kNeverLouderMarginDb);
  for (const SoakUnit& u : worst) {
    std::printf("%-6llu %s  worst_window %+6.2f dB @ %5.2f s | %.2f s "
                "served | handoffs %zu holds %zu | ",
                static_cast<unsigned long long>(u.id),
                u.passed ? "PASS" : "FAIL", u.worst_excess_db,
                u.worst_window_start_s, u.served_s, u.handoffs, u.holds);
    if (v.mesh()) {
      std::printf("max_gap %.3f s alloc %llu/%llu shadow %zu hops %zu "
                  "tx_steps %zu\n",
                  u.max_reacquisition_gap_s,
                  static_cast<unsigned long long>(u.allocating_ticks),
                  static_cast<unsigned long long>(u.total_ticks),
                  u.shadow_handoffs, u.hops, u.tx_steps);
    } else {
      std::printf("profile %zu arena %zu B\n", u.profile, u.arena_high_water);
    }
  }
}

}  // namespace

int main(int argc, char** argv) try {
  using mute::bench::parse_or_exit;
  using mute::bench::parse_positive_or_exit;
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode != "mesh" && mode != "fleet") {
    std::fprintf(stderr, "usage: soak mesh|fleet [flags]\n");
    return 2;
  }
  const bool mesh = mode == "mesh";
  mute::sim::SoakConfig mc;
  mute::sim::FleetSoakConfig fc;
  std::string json_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (mesh && arg == "--relays") {
      mc.relay_count = parse_positive_or_exit<std::size_t>(arg, next());
    } else if (mesh && arg == "--duration") {
      mc.duration_s = parse_positive_or_exit<double>(arg, next());
    } else if (mesh && arg == "--seeds") {
      mc.seeds = parse_positive_or_exit<std::size_t>(arg, next());
    } else if (!mesh && arg == "--devices") {
      fc.devices = parse_positive_or_exit<std::size_t>(arg, next());
    } else if (!mesh && arg == "--sim-seconds") {
      fc.sim_seconds = parse_positive_or_exit<double>(arg, next());
    } else if (!mesh && arg == "--seed") {
      fc.seed = parse_or_exit<std::uint64_t>(arg, next());
    } else if (arg == "--json") {
      json_path = next();
    } else {
      std::fprintf(stderr, "unknown argument for %s: %s\n", mode.c_str(),
                   arg.c_str());
      return 2;
    }
  }

  if (mesh) {
    std::printf("mesh soak: %zu relays, %.1f s, %zu seeds\n\n",
                mc.relay_count, mc.duration_s, mc.seeds);
  } else {
    std::printf("fleet soak: %zu devices, %.1f s, seed %llu\n\n", fc.devices,
                fc.sim_seconds, static_cast<unsigned long long>(fc.seed));
  }
  const SoakVerdict v = mesh ? mute::sim::run_chaos_soak(mc)
                             : mute::sim::run_fleet_soak(fc);
  print_worst_units(v);
  if (!mesh) {
    std::printf("\nworker-lane heap allocations in steady state: %llu%s\n",
                static_cast<unsigned long long>(v.worker_heap_allocations),
                v.allocation_tracked ? "" : " (untracked)");
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << mute::sim::soak_verdict_json(v);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  std::printf("\n%s (%zu of %zu units failed)\n",
              v.passed() ? "ALL INVARIANTS HELD" : "INVARIANT VIOLATION",
              v.failed(), v.units.size());
  return v.passed() ? 0 : 1;
} catch (const mute::PreconditionError& e) {
  std::fprintf(stderr, "rejected configuration: %s\n", e.what());
  return 2;
}
