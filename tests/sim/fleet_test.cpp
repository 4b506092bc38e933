#include "sim/fleet.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "audio/source.hpp"
#include "common/contracts.hpp"
#include "common/error.hpp"
#include "sim/scenarios.hpp"
#include "sim/system.hpp"

namespace mute::sim {
namespace {

// Compact device-sim config shared by the fleet tests: short power-up
// calibration, modest taps, no RF chain (the equivalence claim is about
// the device/fleet loop, not the FM link).
DeviceSimConfig quick_cfg(double duration_s = 2.0) {
  DeviceSimConfig cfg;
  cfg.scene = acoustics::Scene::paper_office();
  cfg.duration_s = duration_s;
  cfg.seed = 7;
  cfg.use_rf_link = false;
  cfg.device.calibration_s = 0.25;
  cfg.device.selection_period_s = 0.5;
  cfg.device.secondary_taps = 96;
  cfg.device.lanc.fxlms.causal_taps = 128;
  return cfg;
}

FleetConfig quick_fleet(std::size_t workers, std::size_t max_tenants = 4) {
  FleetConfig fc;
  fc.workers = workers;
  fc.max_tenants = max_tenants;
  fc.arena_bytes = std::size_t{8} << 20;
  fc.ramp_s = 0.0;  // hard admit: gain == 1.0 from the first sample
  return fc;
}

std::size_t blocks_for(const FleetRuntime& fleet, std::size_t samples) {
  return (samples + fleet.block_samples() - 1) / fleet.block_samples() + 2;
}

Signal fleet_residual(std::size_t workers, const FleetProfile& profile,
                      std::uint64_t device_seed) {
  FleetRuntime fleet(quick_fleet(workers));
  const std::size_t pid = fleet.add_profile(profile);
  const std::uint64_t id = fleet.admit(pid, device_seed,
                                       /*capture_residual=*/true);
  fleet.run_blocks(blocks_for(fleet, profile.length()));
  // The finite-session tenant auto-drained and was evicted; the capture
  // survives eviction.
  EXPECT_EQ(fleet.live_tenants(), 0u);
  return fleet.captured_residual(id);
}

TEST(Fleet, SingleTenantIsBitIdenticalToRunDeviceSimulation) {
  const DeviceSimConfig cfg = quick_cfg();
  audio::WhiteNoiseSource noise(0.1, 1011);
  const SystemResult ref = run_device_simulation(noise, cfg);

  const FleetProfile profile = make_fleet_profile(noise, cfg);
  const Signal got = fleet_residual(2, profile, cfg.device.seed);

  ASSERT_EQ(got.size(), ref.residual.size());
  std::size_t mismatches = 0;
  for (std::size_t t = 0; t < got.size(); ++t) {
    if (std::memcmp(&got[t], &ref.residual[t], sizeof(Sample)) != 0) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u)
      << "fleet tenant diverged from run_device_simulation";
}

TEST(Fleet, OutputIsInvariantAcrossWorkerCounts) {
  const DeviceSimConfig cfg = quick_cfg();
  audio::WhiteNoiseSource noise(0.1, 1011);
  const FleetProfile profile = make_fleet_profile(noise, cfg);

  const Signal one = fleet_residual(1, profile, 5);
  const Signal four = fleet_residual(4, profile, 5);
  ASSERT_EQ(one.size(), four.size());
  EXPECT_EQ(std::memcmp(one.data(), four.data(),
                        one.size() * sizeof(Sample)),
            0)
      << "worker count changed tenant output (DESIGN.md §10 violated)";
}

TEST(Fleet, AdmitDrainChurnReusesSlotsAndKeepsStats) {
  const DeviceSimConfig cfg = quick_cfg();
  audio::WhiteNoiseSource noise(0.1, 2022);
  FleetRuntime fleet(quick_fleet(2, 3));
  const std::size_t pid =
      fleet.add_profile(make_fleet_profile(noise, cfg,
                                           /*loop_steady_state=*/true));

  const std::uint64_t a = fleet.admit(pid, 1);
  const std::uint64_t b = fleet.admit(pid, 2);
  const std::uint64_t c = fleet.admit(pid, 3);
  EXPECT_EQ(fleet.live_tenants(), 3u);
  EXPECT_THROW(fleet.admit(pid, 4), PreconditionError);  // at capacity

  fleet.run_blocks(40);
  fleet.drain(b);
  fleet.run_blocks(4);  // fade + eviction boundary
  EXPECT_EQ(fleet.live_tenants(), 2u);
  EXPECT_FALSE(fleet.is_live(b));

  // The freed slot admits a replacement.
  const std::uint64_t d = fleet.admit(pid, 4);
  fleet.run_blocks(40);
  EXPECT_EQ(fleet.live_tenants(), 3u);

  // Stats survive eviction and stay queryable while live.
  const TenantStats sb = fleet.stats(b);
  EXPECT_EQ(sb.id, b);
  EXPECT_EQ(sb.state, TenantState::kDrained);
  EXPECT_GT(sb.samples, 0u);
  for (const std::uint64_t id : {a, c, d}) {
    const TenantStats s = fleet.stats(id);
    EXPECT_TRUE(fleet.is_live(id));
    EXPECT_GT(s.samples, 0u);
    EXPECT_GT(s.arena_high_water, 0u);
  }
  EXPECT_EQ(fleet.completed().size(), 1u);
  EXPECT_THROW(fleet.stats(9999), PreconditionError);
}

TEST(Fleet, DrainBeforeFirstBlockCancelsTheAdmit) {
  const DeviceSimConfig cfg = quick_cfg();
  audio::WhiteNoiseSource noise(0.1, 2022);
  FleetRuntime fleet(quick_fleet(1, 2));
  const std::size_t pid = fleet.add_profile(make_fleet_profile(noise, cfg));
  const std::uint64_t id = fleet.admit(pid, 1);
  fleet.drain(id);
  EXPECT_EQ(fleet.live_tenants(), 0u);
  const TenantStats s = fleet.stats(id);
  EXPECT_EQ(s.samples, 0u);
  // The slot is free again and the fleet still runs.
  fleet.admit(pid, 2);
  fleet.run_blocks(4);
  EXPECT_EQ(fleet.live_tenants(), 1u);
}

TEST(Fleet, SteadyStateIsAllocationCleanOnWorkerLanes) {
  if (!RtAllocationGuard::interposition_enabled()) {
    GTEST_SKIP() << "allocation interposition compiled out";
  }
  const DeviceSimConfig cfg = quick_cfg();
  audio::WhiteNoiseSource noise(0.1, 303);
  FleetRuntime fleet(quick_fleet(2, 4));
  const std::size_t pid =
      fleet.add_profile(make_fleet_profile(noise, cfg,
                                           /*loop_steady_state=*/true));
  for (std::uint64_t s = 0; s < 4; ++s) fleet.admit(pid, s + 1);

  // Run through power-up calibration into steady state...
  fleet.run_blocks(64);
  // ...then hold the fleet to the RtAllocationGuard contract: every
  // allocation inside a tenant audio block must land in the tenant's
  // arena, so the global heap sees ZERO traffic from worker lanes — not
  // "a small fraction of ticks", zero (this is the property that removes
  // the allocator lock from the multi-core scaling path).
  const std::uint64_t heap_before = fleet.steady_allocations();
  // TickStaysAllocationLean-style leanness on the arena side: most blocks
  // must not allocate at all, arena or not (selection rounds are the
  // budgeted amortized exception).
  std::size_t clean_blocks = 0;
  const std::size_t kBlocks = 128;
  auto arena_allocs = [&] {
    std::uint64_t total = 0;
    for (const auto id : {1, 2, 3, 4}) {
      total += fleet.stats(static_cast<std::uint64_t>(id)).arena_allocations;
    }
    return total;
  };
  std::uint64_t prev = arena_allocs();
  for (std::size_t b = 0; b < kBlocks; ++b) {
    fleet.run_blocks(1);
    const std::uint64_t now = arena_allocs();
    if (now == prev) ++clean_blocks;
    prev = now;
  }
  EXPECT_EQ(fleet.steady_allocations(), heap_before)
      << "a worker lane reached the global heap in steady state";
  EXPECT_GE(clean_blocks, (kBlocks * 9) / 10)
      << "fleet steady state allocates (even arena-side) too often";
}

TEST(Fleet, SoakSmokeChurnWithFaultsKeepsEveryTenantNoLouder) {
  // Small-fleet soak: mixed profiles (one with a scripted relay dropout),
  // admit/drain churn, and the PR 2 invariant held per tenant — a dead
  // link must never leave any tenant's ear louder than passive (worst
  // disturbance-audible window within the soak margin).
  DeviceSimConfig benign = quick_cfg(2.0);
  DeviceSimConfig faulty = quick_cfg(2.0);
  faulty.use_rf_link = true;
  faulty.relay_positions = {{2.0, 2.5, 1.5}, {2.2, 2.5, 1.5}};
  faulty.relay_faults = {
      make_fault_schedule(FaultScenario::kRelayDropout, 1.0, 0.5)};
  faulty.device.hold_timeout_s = 0.3;

  audio::WhiteNoiseSource noise(0.1, 4044);
  FleetRuntime fleet(quick_fleet(2, 8));
  const std::size_t p0 =
      fleet.add_profile(make_fleet_profile(noise, benign, true));
  const std::size_t p1 =
      fleet.add_profile(make_fleet_profile(noise, faulty, true));

  std::vector<std::uint64_t> live;
  std::uint64_t seed = 1;
  for (std::size_t i = 0; i < 6; ++i) {
    live.push_back(fleet.admit(i % 2 == 0 ? p0 : p1, seed++));
  }
  // ~2.5 simulated seconds of churn: every 32 blocks drain the oldest and
  // admit a replacement on the other profile.
  for (std::size_t round = 0; round < 5; ++round) {
    fleet.run_blocks(32);
    fleet.drain(live.front());
    live.erase(live.begin());
    live.push_back(fleet.admit(round % 2 == 0 ? p1 : p0, seed++));
  }
  fleet.run_blocks(32);

  std::size_t checked = 0;
  const auto check = [&](const TenantStats& s) {
    if (s.windows == 0) return;  // evicted before any audible window
    ++checked;
    EXPECT_LE(s.worst_excess_db, kNeverLouderMarginDb)
        << "tenant " << s.id << " louder than passive at t="
        << s.worst_excess_t_s << "s";
  };
  for (const TenantStats& s : fleet.completed()) check(s);
  for (const std::uint64_t id : live) check(fleet.stats(id));
  EXPECT_GT(checked, 0u);
}

// Regression for the selection-round arena leak: every GCC-PHAT round
// used to allocate its transform buffers inside the tenant's monotonic
// arena, which never reclaims a free, so a paper-default tenant exhausted
// FleetConfig's default 4 MiB arena about 2.5 s into serving. Serves 20
// simulated seconds at the default arena and returns, per tenant, its
// arena_used just after the first selection round followed by its value
// after each further round.
std::vector<std::vector<std::size_t>> arena_used_per_round(
    const DeviceSimConfig& cfg, std::size_t tenants) {
  audio::WhiteNoiseSource noise(0.1, 5055);
  FleetConfig fc;  // default arena_bytes
  fc.workers = 1;
  fc.max_tenants = tenants;
  FleetRuntime fleet(fc);
  const FleetProfile profile =
      make_fleet_profile(noise, cfg, /*loop_steady_state=*/true);
  const std::size_t pid = fleet.add_profile(profile);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t s = 1; s <= tenants; ++s) {
    ids.push_back(fleet.admit(pid, s));
  }
  const double fs = profile.streams.sample_rate;
  const auto blocks = [&](double seconds) {
    return static_cast<std::size_t>(
        std::ceil(seconds * fs / static_cast<double>(fleet.block_samples())));
  };
  const double period_s = cfg.device.selection_period_s;
  const double first_round_s = cfg.device.calibration_s + period_s + 0.05;
  std::vector<std::vector<std::size_t>> used(tenants);
  const auto snapshot = [&] {
    for (std::size_t i = 0; i < tenants; ++i) {
      EXPECT_TRUE(fleet.is_live(ids[i]));
      used[i].push_back(fleet.stats(ids[i]).arena_used);
    }
  };
  fleet.run_blocks(blocks(first_round_s));
  snapshot();
  for (double t = first_round_s; t + period_s <= 20.0; t += period_s) {
    fleet.run_blocks(blocks(period_s));
    snapshot();
  }
  for (const auto id : ids) {
    EXPECT_GE(static_cast<double>(fleet.stats(id).samples), 19.0 * fs);
  }
  return used;
}

TEST(Fleet, PaperDefaultTenantsServeAtDefaultArenaWithoutGrowth) {
  DeviceSimConfig cfg;  // paper-default device: one relay, 1 s rounds
  cfg.duration_s = 6.0;
  cfg.seed = 7;
  cfg.use_rf_link = false;
  for (const auto& used : arena_used_per_round(cfg, 2)) {
    ASSERT_GE(used.size(), 11u);  // the first round plus >= 10 more
    for (std::size_t r = 1; r < used.size(); ++r) {
      EXPECT_EQ(used[r], used[0]) << "arena grew by round " << r;
    }
  }
}

TEST(Fleet, FourRelayTenantArenaSettlesAtDefaultArena) {
  DeviceSimConfig cfg = quick_cfg(3.0);  // 0.5 s rounds
  for (std::size_t k = 0; k < 4; ++k) {
    cfg.relay_positions.push_back(
        {2.0 + 0.2 * static_cast<double>(k), 2.5, 1.5});
  }
  const std::vector<std::size_t> used = arena_used_per_round(cfg, 1).front();
  ASSERT_GE(used.size(), 30u);
  // Selection rounds allocate nothing. What a multi-relay tenant still
  // allocates is its first handoffs and shadow retargets warming up, in
  // bounded steps: a filter-cache entry per relay it visits, and filter
  // windows growing to the largest lookahead seen. The arena then stays
  // flat for the rest of the run (>= 10 rounds).
  EXPECT_LT(used.back() - used.front(), std::size_t{64} << 10);
  for (std::size_t r = used.size() - 10; r < used.size(); ++r) {
    EXPECT_EQ(used[r], used.back()) << "arena grew by round " << r;
  }
}

TEST(FleetDeathTest, UndersizedArenaFailsLoudlyAtAdmission) {
  // Exhaustion inside the fleet is the arena's deterministic abort, not a
  // silent fallback: device construction overflows a tiny tenant arena.
  if (!ScopedArenaAlloc::routing_enabled()) {
    GTEST_SKIP() << "allocation interposition compiled out (construction "
                    "would fall back to the global heap, not the arena)";
  }
  const DeviceSimConfig cfg = quick_cfg();
  audio::WhiteNoiseSource noise(0.1, 1011);
  const FleetProfile profile = make_fleet_profile(noise, cfg);
  EXPECT_DEATH(
      {
        FleetConfig fc;
        fc.workers = 1;  // no helper threads: fork-safe death test
        fc.max_tenants = 1;
        fc.arena_bytes = 1 << 12;
        FleetRuntime fleet(fc);
        const std::size_t pid = fleet.add_profile(profile);
        fleet.admit(pid, 1);
        fleet.run_blocks(1);
      },
      "monotonic arena exhausted");
}

}  // namespace
}  // namespace mute::sim
