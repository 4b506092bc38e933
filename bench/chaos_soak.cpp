// Deterministic chaos soak (tentpole, part 3): randomized fault-episode
// schedules across an N-relay mesh, several seeds in parallel, with the
// survival invariants asserted per run:
//
//   1. never meaningfully louder than passive (any 0.25 s window);
//   2. bounded re-acquisition gap (warm/shadow failover must work);
//   3. allocation-free steady state (only control events may allocate;
//      checked when the operator-new interposition is compiled in).
//
// Prints a verdict table, optionally writes the JSON artifact CI uploads,
// and exits non-zero when any seed violates any invariant — every failure
// reproduces exactly from its printed (seed, relays, duration) triple.
//
// Usage: chaos_soak [--relays N] [--duration S] [--seeds K]
//                   [--json PATH] [--no-supervision]
//
// Exit codes: 0 every invariant held, 1 a violation, 2 usage error (an
// unparsable or non-finite value, or zero seeds — a soak over no seeds
// would hold every invariant vacuously).
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sim/parallel_sweep.hpp"
#include "sim/soak.hpp"

namespace {

// Parse the whole of `text` as a finite T, or exit 2 naming the flag.
template <typename T>
T parse_or_exit(const std::string& flag, const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end ||
      !std::isfinite(static_cast<double>(value))) {
    std::fprintf(stderr, "invalid value for %s: '%s'\n", flag.c_str(), text);
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t relays = 4;
  double duration_s = 12.0;
  std::size_t seeds = 4;
  std::string json_path;
  bool supervision = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--relays") {
      relays = parse_or_exit<std::size_t>(arg, next());
    } else if (arg == "--duration") {
      duration_s = parse_or_exit<double>(arg, next());
    } else if (arg == "--seeds") {
      seeds = parse_or_exit<std::size_t>(arg, next());
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--no-supervision") {
      supervision = false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (seeds == 0) {
    std::fprintf(stderr, "--seeds must be at least 1\n");
    return 2;
  }

  std::printf("chaos soak: %zu relays, %.1f s, %zu seeds, spectrum "
              "supervision %s\n\n",
              relays, duration_s, seeds, supervision ? "on" : "off");

  const auto reports =
      mute::sim::parallel_sweep(seeds, [&](std::size_t i) {
        mute::sim::SoakConfig cfg;
        cfg.relay_count = relays;
        cfg.duration_s = duration_s;
        cfg.seed = 1000 + i;  // index-derived: bit-deterministic sweep
        cfg.spectrum_supervision = supervision;
        return mute::sim::run_chaos_soak(cfg);
      });

  bool all_passed = true;
  for (const auto& r : reports) {
    all_passed = all_passed && r.passed();
    std::printf(
        "seed %-5llu %s  worst_window %+6.2f dB @ %5.2f s | max_gap %.3f s | "
        "alloc %llu/%llu%s | handoffs %zu (shadow %zu) holds %zu hops %zu "
        "tx_steps %zu\n",
        static_cast<unsigned long long>(r.seed),
        r.passed() ? "PASS" : "FAIL", r.worst_window_excess_db,
        r.worst_window_t_s, r.max_reacquisition_gap_s,
        static_cast<unsigned long long>(r.allocating_ticks),
        static_cast<unsigned long long>(r.total_ticks),
        r.allocation_tracked ? "" : " (untracked)", r.handoff_count,
        r.shadow_handoff_count, r.hold_count, r.hop_count, r.tx_step_count);
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << mute::sim::soak_reports_json(reports);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  std::printf("\n%s\n", all_passed ? "ALL INVARIANTS HELD"
                                   : "INVARIANT VIOLATION");
  return all_passed ? 0 : 1;
}
