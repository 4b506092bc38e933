// Fleet capacity bench (edge-service runtime tentpole): devices x RTF
// table for the arena-backed, batch-scheduled FleetRuntime, plus a naive
// one-thread-per-device runtime on the same per-device workload as the
// capacity baseline.
//
// RTF is the per-device real-time factor: simulated seconds per wall
// second with every device advancing in lock-step. A runtime serves a
// fleet size in real time iff RTF >= 1. Capacity is reported two ways:
// the largest measured size that sustained RTF >= 1, and the linear
// estimate devices * RTF from the largest measured row (per-device cost
// is ~flat, so the product is ~constant; the table lets you audit that
// assumption). Warm-up — admission, power-up calibration, the first
// selection round — runs untimed in both modes so the table measures the
// served steady state.
//
// Every number is wall-clock on whatever cores the host grants; on a
// single-core host the fleet's win is scheduling and locality (no
// context-switch storm, profile-major batches walking shared stream
// data), not parallel speedup. DESIGN.md S14 records a measured table.
//
// Usage: fleet [--max-devices N] [--workers W] [--sim-seconds S]
//              [--arena-mb M] [--block SAMPLES] [--skip-naive] [--json PATH]
//
// Exits 2 on a usage error: an unparsable, non-finite or non-positive
// value, or a configuration the fleet runtime rejects.
//
// --block sets the scheduling quantum. Throughput runs want a large one
// (default 2048 here, 128 ms): each tenant switch streams the tenant's
// filter state back through the cache hierarchy, so tiny quanta pay that
// reload 8x more often and lose to one-thread-per-device's long OS time
// slices. Latency-sensitive fleets trade capacity for shorter control
// latency by shrinking it (FleetConfig default is 256).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "audio/generators.hpp"
#include "bench_util.hpp"
#include "common/error.hpp"
#include "sim/fleet.hpp"
#include "sim/system.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Row {
  const char* mode = "";
  std::size_t devices = 0;
  double wall_s = 0.0;
  double rtf = 0.0;
  std::uint64_t heap_allocs = 0;     // fleet mode: worker-lane heap traffic
  std::size_t arena_high_water = 0;  // fleet mode: max tenant arena usage
};

// The shared steady-state workload: short power-up calibration, modest
// taps, no RF chain, looped loud region (the same profile family the
// fleet tests and BM_FleetThroughput use).
mute::sim::FleetProfile make_profile() {
  mute::sim::DeviceSimConfig cfg;
  cfg.duration_s = 2.0;
  cfg.seed = 7;
  cfg.use_rf_link = false;
  cfg.device.calibration_s = 0.25;
  cfg.device.selection_period_s = 0.5;
  cfg.device.secondary_taps = 96;
  cfg.device.lanc.fxlms.causal_taps = 128;
  mute::audio::WhiteNoiseSource noise(0.1, 1011);
  return mute::sim::make_fleet_profile(noise, cfg,
                                       /*loop_steady_state=*/true);
}

Row measure_fleet(const mute::sim::FleetProfile& profile, std::size_t devices,
                  std::size_t workers, double sim_s, std::size_t arena_mb,
                  std::size_t block_samples) {
  const double fs = profile.streams.sample_rate;
  mute::sim::FleetConfig fc;
  fc.workers = workers;
  fc.max_tenants = devices;
  fc.arena_bytes = arena_mb << 20;
  fc.block_samples = block_samples;
  mute::sim::FleetRuntime fleet(fc);
  const std::size_t pid = fleet.add_profile(profile);
  for (std::size_t i = 0; i < devices; ++i) fleet.admit(pid, i + 1);

  const auto blocks_for = [&](double s) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(s * fs / static_cast<double>(fleet.block_samples()))));
  };
  fleet.run_blocks(blocks_for(1.2));  // calibration + first selection
  const std::uint64_t heap_before = fleet.steady_allocations();

  const std::size_t sim_blocks = blocks_for(sim_s);
  const auto t0 = Clock::now();
  fleet.run_blocks(sim_blocks);
  const double wall = seconds_since(t0);

  Row row;
  row.mode = "fleet";
  row.devices = devices;
  row.wall_s = wall;
  row.rtf = static_cast<double>(sim_blocks * fleet.block_samples()) / fs / wall;
  row.heap_allocs = fleet.steady_allocations() - heap_before;
  for (std::size_t i = 0; i < devices; ++i) {
    row.arena_high_water = std::max(
        row.arena_high_water, fleet.stats(i + 1).arena_high_water);
  }
  return row;
}

// The baseline the fleet replaces: one OS thread per device, each owning
// its own heap-constructed EarLoop. Warm-up runs untimed per thread; two
// rendezvous points bracket the timed region so the wall clock covers
// exactly the same simulated span as the fleet.
Row measure_naive(const mute::sim::FleetProfile& profile, std::size_t devices,
                  double sim_s) {
  const mute::sim::DeviceStreams& s = profile.streams;
  const double fs = s.sample_rate;
  const std::size_t len = profile.length();
  const std::size_t warm = std::min(
      len, static_cast<std::size_t>(std::ceil(1.2 * fs)));
  const std::size_t sim_samples =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(sim_s * fs)));

  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<std::size_t> done{0};
  std::vector<std::thread> threads;
  threads.reserve(devices);
  for (std::size_t i = 0; i < devices; ++i) {
    threads.emplace_back([&, i] {
      mute::sim::EarLoop ear(s, i + 1);
      std::size_t cursor = 0;
      const auto run = [&](std::size_t samples) {
        for (std::size_t t = 0; t < samples; ++t) {
          if (cursor >= len) cursor = profile.loop_start;
          ear.step(s, cursor++, 1.0);
        }
      };
      run(warm);
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      run(sim_samples);
      done.fetch_add(1, std::memory_order_release);
    });
  }
  while (ready.load(std::memory_order_acquire) < devices) {
    std::this_thread::yield();
  }
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  while (done.load(std::memory_order_acquire) < devices) {
    std::this_thread::yield();
  }
  const double wall = seconds_since(t0);
  for (auto& t : threads) t.join();

  Row row;
  row.mode = "naive";
  row.devices = devices;
  row.wall_s = wall;
  row.rtf = static_cast<double>(sim_samples) / fs / wall;
  return row;
}

// Largest measured size with RTF >= 1 (0 when even the smallest size
// missed real time).
std::size_t max_realtime(const std::vector<Row>& rows, const char* mode) {
  std::size_t best = 0;
  for (const Row& r : rows) {
    if (std::strcmp(r.mode, mode) == 0 && r.rtf >= 1.0) {
      best = std::max(best, r.devices);
    }
  }
  return best;
}

// Linear capacity estimate devices * RTF from the largest measured row of
// a mode (per-device cost is ~flat in fleet size).
double capacity_estimate(const std::vector<Row>& rows, const char* mode) {
  double est = 0.0;
  std::size_t at = 0;
  for (const Row& r : rows) {
    if (std::strcmp(r.mode, mode) == 0 && r.devices >= at) {
      at = r.devices;
      est = static_cast<double>(r.devices) * r.rtf;
    }
  }
  return est;
}

}  // namespace

int main(int argc, char** argv) try {
  using mute::bench::parse_or_exit;
  using mute::bench::parse_positive_or_exit;
  std::size_t max_devices = 512;
  std::size_t workers = 0;  // 0 = default_sweep_workers (hardware)
  double sim_s = 0.5;
  std::size_t arena_mb = 4;
  std::size_t block_samples = 2048;
  bool run_naive = true;
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
    if (arg == "--max-devices") {
      max_devices = parse_positive_or_exit<std::size_t>(arg, next());
    } else if (arg == "--workers") {
      workers = parse_or_exit<std::size_t>(arg, next());
    } else if (arg == "--sim-seconds") {
      sim_s = parse_positive_or_exit<double>(arg, next());
    } else if (arg == "--arena-mb") {
      arena_mb = parse_positive_or_exit<std::size_t>(arg, next());
    } else if (arg == "--block") {
      block_samples = parse_positive_or_exit<std::size_t>(arg, next());
    } else if (arg == "--skip-naive") {
      run_naive = false;
    } else if (arg == "--json") {
      json_path = next();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  const mute::sim::FleetProfile profile = make_profile();
  std::printf(
      "fleet capacity bench: <=%zu devices, %zu workers (0=auto), %.2f s "
      "timed, %zu MiB/tenant arena, %zu-sample blocks, %u hardware "
      "threads\n\n",
      max_devices, workers, sim_s, arena_mb, block_samples,
      std::thread::hardware_concurrency());

  std::vector<Row> rows;
  const auto print = [](const Row& r) {
    std::printf("%-5s %5zu devices  wall %7.3f s  RTF %7.3f%s", r.mode,
                r.devices, r.wall_s, r.rtf, r.rtf >= 1.0 ? "  realtime" : "");
    if (std::strcmp(r.mode, "fleet") == 0) {
      std::printf("  heap_allocs %llu  arena_hw %zu",
                  static_cast<unsigned long long>(r.heap_allocs),
                  r.arena_high_water);
    }
    std::printf("\n");
  };

  // Doubling size sweep per mode, stopping once a mode is clearly past
  // capacity (RTF < 0.5) — the table's purpose is to bracket RTF = 1.
  for (const char* mode : {"fleet", "naive"}) {
    if (std::strcmp(mode, "naive") == 0 && !run_naive) continue;
    for (std::size_t n = 1; n <= max_devices; n *= 2) {
      const Row row =
          std::strcmp(mode, "fleet") == 0
              ? measure_fleet(profile, n, workers, sim_s, arena_mb,
                              block_samples)
              : measure_naive(profile, n, sim_s);
      rows.push_back(row);
      print(row);
      if (row.rtf < 0.5) break;
    }
    std::printf("\n");
  }

  const std::size_t fleet_max = max_realtime(rows, "fleet");
  const std::size_t naive_max = max_realtime(rows, "naive");
  const double fleet_est = capacity_estimate(rows, "fleet");
  const double naive_est = capacity_estimate(rows, "naive");
  std::printf("fleet: max measured realtime size %zu, linear capacity "
              "estimate %.0f devices\n",
              fleet_max, fleet_est);
  if (run_naive) {
    std::printf("naive: max measured realtime size %zu, linear capacity "
                "estimate %.0f devices\n",
                naive_max, naive_est);
    if (naive_est > 0.0) {
      std::printf("capacity ratio (fleet/naive, linear estimate): %.2fx\n",
                  fleet_est / naive_est);
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << "{\n  \"workers\": " << workers << ",\n  \"sim_seconds\": " << sim_s
        << ",\n  \"hardware_threads\": " << std::thread::hardware_concurrency()
        << ",\n  \"fleet_max_realtime\": " << fleet_max
        << ",\n  \"naive_max_realtime\": " << naive_max
        << ",\n  \"fleet_capacity_estimate\": " << fleet_est
        << ",\n  \"naive_capacity_estimate\": " << naive_est
        << ",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      out << "    {\"mode\": \"" << r.mode << "\", \"devices\": " << r.devices
          << ", \"wall_s\": " << r.wall_s << ", \"rtf\": " << r.rtf
          << ", \"heap_allocs\": " << r.heap_allocs
          << ", \"arena_high_water\": " << r.arena_high_water << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
} catch (const mute::PreconditionError& e) {
  std::fprintf(stderr, "rejected configuration: %s\n", e.what());
  return 2;
}
