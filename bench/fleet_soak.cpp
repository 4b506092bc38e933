// Fleet soak harness (edge-service runtime, satellite 3): a seeded
// multi-tenant churn run at fleet scale — mixed input profiles (including
// one with a scripted relay dropout riding the RF chain), continuous
// admit/drain churn, and the PR 2 survival contract held PER TENANT: no
// tenant's ear may end up meaningfully louder than passive in any
// disturbance-audible window, fault episodes included. Also enforces the
// fleet memory contract: zero global-heap allocations from worker lanes
// in steady state (when the operator-new interposition is compiled in),
// and reports the largest tenant arena high water (the arena-sizing
// signal, in bytes).
//
// Prints the worst offenders and an aggregate verdict, optionally writes
// a JSON artifact, and exits non-zero on any violation — every failure
// reproduces exactly from its printed (seed, devices, sim-seconds)
// triple because the whole fleet is deterministic in the admission
// sequence (DESIGN.md S10/S14).
//
// Usage: fleet_soak [--devices N] [--sim-seconds S] [--workers W]
//                   [--churn-blocks B] [--seed K] [--arena-mb M]
//                   [--json PATH]
//
// Exit codes: 0 every invariant held, 1 a violation, 2 usage error (an
// unparsable, non-finite or non-positive value, an --arena-mb whose bytes
// overflow size_t, or a configuration the fleet runtime rejects).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "audio/generators.hpp"
#include "bench_util.hpp"
#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/fleet.hpp"
#include "sim/scenarios.hpp"
#include "sim/system.hpp"

namespace {

// Mixed tenant population: two benign spectra plus a faulty profile whose
// relay feed dies mid-stream (kRelayDropout) — the case the never-louder
// invariant exists for.
std::vector<mute::sim::FleetProfile> make_profiles() {
  const auto base = [] {
    mute::sim::DeviceSimConfig cfg;
    cfg.duration_s = 2.0;
    cfg.seed = 7;
    cfg.use_rf_link = false;
    cfg.device.calibration_s = 0.25;
    cfg.device.selection_period_s = 0.5;
    cfg.device.secondary_taps = 96;
    cfg.device.lanc.fxlms.causal_taps = 128;
    return cfg;
  };

  std::vector<mute::sim::FleetProfile> profiles;
  {
    mute::audio::WhiteNoiseSource noise(0.1, 4044);
    profiles.push_back(
        mute::sim::make_fleet_profile(noise, base(), /*loop=*/true));
  }
  {
    // Temporally distinct from profile 0: speech-pause burst structure
    // (broadband when on). Deliberately broadband — this harness showed
    // that COLORED ambient references (PinkNoiseSource, MachineHumSource)
    // reproducibly diverge the canceller by tens of dB once serving
    // starts, with the compact soak config AND with full device defaults;
    // that is a pre-existing adaptive-layer weakness, tracked in
    // ROADMAP.md (colored-reference hardening), not a fleet property
    // under test here.
    mute::audio::IntermittentSource noise(
        std::make_unique<mute::audio::WhiteNoiseSource>(0.12, 909), 16000.0,
        /*min_on_s=*/0.4, /*max_on_s=*/0.8, /*min_off_s=*/0.1,
        /*max_off_s=*/0.3, /*seed=*/606);
    profiles.push_back(
        mute::sim::make_fleet_profile(noise, base(), /*loop=*/true));
  }
  {
    mute::sim::DeviceSimConfig cfg = base();
    cfg.use_rf_link = true;
    cfg.relay_positions = {{2.0, 2.5, 1.5}, {2.2, 2.5, 1.5}};
    cfg.relay_faults = {mute::sim::make_fault_schedule(
        mute::sim::FaultScenario::kRelayDropout, 1.0, 0.5)};
    cfg.device.hold_timeout_s = 0.3;
    mute::audio::WhiteNoiseSource noise(0.1, 4044);
    profiles.push_back(mute::sim::make_fleet_profile(noise, cfg, /*loop=*/true));
  }
  return profiles;
}

struct Verdict {
  std::uint64_t tenant = 0;
  std::size_t profile = 0;
  double worst_excess_db = 0.0;
  double worst_excess_t_s = 0.0;
  std::uint64_t samples = 0;
  bool passed = true;
};

}  // namespace

int main(int argc, char** argv) try {
  using mute::bench::parse_or_exit;
  using mute::bench::parse_positive_or_exit;
  std::size_t devices = 1024;
  double sim_s = 4.0;
  std::size_t workers = 0;  // 0 = default_sweep_workers
  std::size_t churn_blocks = 64;
  std::uint64_t seed = 1;
  std::size_t arena_mb = 8;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--devices") {
      devices = parse_positive_or_exit<std::size_t>(arg, next());
    } else if (arg == "--sim-seconds") {
      sim_s = parse_positive_or_exit<double>(arg, next());
    } else if (arg == "--workers") {
      workers = parse_or_exit<std::size_t>(arg, next());
    } else if (arg == "--churn-blocks") {
      churn_blocks = parse_positive_or_exit<std::size_t>(arg, next());
    } else if (arg == "--seed") {
      seed = parse_or_exit<std::uint64_t>(arg, next());
    } else if (arg == "--arena-mb") {
      arena_mb = parse_positive_or_exit<std::size_t>(arg, next());
      if (arena_mb > (SIZE_MAX >> 20)) {  // arena_mb << 20 would wrap
        std::fprintf(stderr, "%s must be at most %zu\n", arg.c_str(),
                     SIZE_MAX >> 20);
        return 2;
      }
    } else if (arg == "--json") {
      json_path = next();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  const std::vector<mute::sim::FleetProfile> profiles = make_profiles();
  const double fs = profiles.front().streams.sample_rate;

  mute::sim::FleetConfig fc;
  fc.workers = workers;
  fc.max_tenants = devices;
  fc.arena_bytes = arena_mb << 20;
  mute::sim::FleetRuntime fleet(fc);
  std::vector<std::size_t> pids;
  pids.reserve(profiles.size());
  for (const auto& p : profiles) pids.push_back(fleet.add_profile(p));

  std::printf(
      "fleet soak: %zu devices, %.1f s, seed %llu, %zu workers (0=auto), "
      "%zu profiles, churn every %zu blocks\n\n",
      devices, sim_s, static_cast<unsigned long long>(seed), workers,
      profiles.size(), churn_blocks);

  // Deterministic admission sequence: profile choice and device seed both
  // come from one seeded stream, so a failing run reproduces exactly.
  mute::Rng rng(seed);
  std::uint64_t device_seed = 1;
  std::vector<std::uint64_t> live;
  live.reserve(devices);
  const auto admit_one = [&] {
    const auto pid = pids[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(pids.size()) - 1))];
    live.push_back(fleet.admit(pid, device_seed++));
  };
  for (std::size_t i = 0; i < devices; ++i) admit_one();

  // Churn rounds: every `churn_blocks` drain the oldest ~1/16 of the
  // fleet and admit replacements, until the target simulated span is
  // done. Evicted tenants carry their verdict into completed().
  const std::size_t total_blocks = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(sim_s * fs / static_cast<double>(fleet.block_samples()))));
  const std::size_t churn_count = std::max<std::size_t>(1, devices / 16);
  std::size_t blocks_done = 0;
  while (blocks_done < total_blocks) {
    const std::size_t step = std::min(churn_blocks, total_blocks - blocks_done);
    fleet.run_blocks(step);
    blocks_done += step;
    if (blocks_done >= total_blocks) break;
    for (std::size_t i = 0; i < churn_count && !live.empty(); ++i) {
      fleet.drain(live.front());
      live.erase(live.begin());
    }
    // One block completes the 5 ms drain fade; the next block boundary's
    // control pass evicts the drained tenants and frees their slots.
    fleet.run_blocks(2);
    blocks_done += 2;
    for (std::size_t i = 0; i < churn_count; ++i) admit_one();
  }

  // Verdicts: every tenant that saw at least one disturbance-audible
  // window, evicted or still live.
  std::vector<Verdict> verdicts;
  std::size_t arena_high_water_max = 0;  // bytes, over judged tenants
  const auto judge = [&](const mute::sim::TenantStats& s) {
    if (s.windows == 0) return;  // drained before any audible window
    arena_high_water_max = std::max(arena_high_water_max, s.arena_high_water);
    Verdict v;
    v.tenant = s.id;
    v.profile = s.profile;
    v.worst_excess_db = s.worst_excess_db;
    v.worst_excess_t_s = s.worst_excess_t_s;
    v.samples = s.samples;
    v.passed = s.worst_excess_db <= mute::sim::kNeverLouderMarginDb;
    verdicts.push_back(v);
  };
  for (const auto& s : fleet.completed()) judge(s);
  for (const std::uint64_t id : live) judge(fleet.stats(id));

  std::size_t failed = 0;
  for (const auto& v : verdicts) failed += v.passed ? 0 : 1;
  std::sort(verdicts.begin(), verdicts.end(), [](const auto& a, const auto& b) {
    return a.worst_excess_db > b.worst_excess_db;
  });
  const std::size_t shown = std::min<std::size_t>(verdicts.size(), 10);
  std::printf("worst %zu of %zu judged tenants (margin %+.1f dB):\n", shown,
              verdicts.size(), mute::sim::kNeverLouderMarginDb);
  for (std::size_t i = 0; i < shown; ++i) {
    const Verdict& v = verdicts[i];
    std::printf("tenant %-6llu %s profile %zu  worst_window %+6.2f dB @ "
                "%5.2f s  (%.2f s served)\n",
                static_cast<unsigned long long>(v.tenant),
                v.passed ? "PASS" : "FAIL", v.profile, v.worst_excess_db,
                v.worst_excess_t_s, static_cast<double>(v.samples) / fs);
  }

  const std::uint64_t heap = fleet.steady_allocations();
  const bool heap_tracked = mute::RtAllocationGuard::interposition_enabled();
  const bool heap_clean = !heap_tracked || heap == 0;
  std::printf("\nworker-lane heap allocations in steady state: %llu%s\n",
              static_cast<unsigned long long>(heap),
              heap_tracked ? "" : " (untracked: interposition compiled out)");
  std::printf("largest tenant arena high water: %zu bytes\n",
              arena_high_water_max);

  const bool all_passed = failed == 0 && heap_clean && !verdicts.empty();
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << "{\n  \"devices\": " << devices << ",\n  \"sim_seconds\": " << sim_s
        << ",\n  \"seed\": " << seed << ",\n  \"judged\": " << verdicts.size()
        << ",\n  \"failed\": " << failed
        << ",\n  \"heap_allocations\": " << heap
        << ",\n  \"heap_tracked\": " << (heap_tracked ? "true" : "false")
        << ",\n  \"arena_high_water_max\": " << arena_high_water_max
        << ",\n  \"passed\": " << (all_passed ? "true" : "false")
        << ",\n  \"worst\": [\n";
    for (std::size_t i = 0; i < shown; ++i) {
      const Verdict& v = verdicts[i];
      out << "    {\"tenant\": " << v.tenant << ", \"profile\": " << v.profile
          << ", \"worst_excess_db\": " << v.worst_excess_db
          << ", \"worst_excess_t_s\": " << v.worst_excess_t_s
          << ", \"passed\": " << (v.passed ? "true" : "false") << "}"
          << (i + 1 < shown ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  std::printf("\n%s (%zu/%zu tenants within margin%s)\n",
              all_passed ? "ALL INVARIANTS HELD" : "INVARIANT VIOLATION",
              verdicts.size() - failed, verdicts.size(),
              heap_clean ? "" : ", heap dirty");
  return all_passed ? 0 : 1;
} catch (const mute::PreconditionError& e) {
  std::fprintf(stderr, "rejected configuration: %s\n", e.what());
  return 2;
}
