// Soak harness tests: the mesh episode generator is a deterministic pure
// function of the config with hard safety properties (episodes inside the
// post-calibration window, always >= 1 healthy relay, jammers pinned to
// the victim's home channel); a short seeded mesh soak and a small fleet
// soak uphold every invariant the harness asserts; and both verdicts
// serialize to one JSON schema.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <variant>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/soak.hpp"

namespace mute::sim {
namespace {

TEST(SoakSchedule, IsADeterministicFunctionOfTheConfig) {
  SoakConfig cfg;
  cfg.relay_count = 4;
  cfg.duration_s = 12.0;
  cfg.seed = 9;
  const auto a = make_soak_episodes(cfg);
  const auto b = make_soak_episodes(cfg);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), kSoakEpisodes);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].relay, b[i].relay);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_DOUBLE_EQ(a[i].start_s, b[i].start_s);
    EXPECT_DOUBLE_EQ(a[i].duration_s, b[i].duration_s);
    EXPECT_EQ(a[i].jammer_channel, b[i].jammer_channel);
  }

  cfg.seed = 10;
  const auto c = make_soak_episodes(cfg);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size() && !any_difference; ++i) {
    any_difference = a[i].relay != c[i].relay || a[i].kind != c[i].kind ||
                     a[i].start_s != c[i].start_s;
  }
  EXPECT_TRUE(any_difference) << "schedule ignores the seed";
}

TEST(SoakSchedule, EpisodesRespectTheWindowAndTheMesh) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SoakConfig cfg;
    cfg.relay_count = 5;
    cfg.duration_s = 14.0;
    cfg.seed = seed;
    const auto episodes = make_soak_episodes(cfg);
    ASSERT_EQ(episodes.size(), kSoakEpisodes) << "seed " << seed;
    for (const SoakEpisode& e : episodes) {
      EXPECT_LT(e.relay, cfg.relay_count) << "seed " << seed;
      EXPECT_NE(e.kind, FaultScenario::kNone) << "seed " << seed;
      // Inside the post-calibration window, clear of the tail.
      EXPECT_GE(e.start_s, 3.5) << "seed " << seed;
      EXPECT_LE(e.start_s + e.duration_s, cfg.duration_s - 1.5)
          << "seed " << seed;
      EXPECT_GE(e.duration_s, 0.4) << "seed " << seed;
      EXPECT_LE(e.duration_s, 1.2) << "seed " << seed;
      // Jammers attack the victim's HOME channel (relay k starts on
      // channel k) — anything else is a jammer the planner need not dodge.
      if (e.kind == FaultScenario::kJammerBurst) {
        EXPECT_EQ(e.jammer_channel, static_cast<int>(e.relay))
            << "seed " << seed;
      } else {
        EXPECT_EQ(e.jammer_channel, -1) << "seed " << seed;
      }
    }
  }
}

TEST(SoakSchedule, AlwaysLeavesAHealthyRelay) {
  // The headline generator guarantee: at any instant at least one relay is
  // un-faulted, so a qualified standby exists and "bounded re-acquisition"
  // is a fair invariant. Checked on a fine time grid across many seeds.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SoakConfig cfg;
    cfg.relay_count = 2;  // tightest case: one fault saturates half the mesh
    cfg.duration_s = 10.0;
    cfg.seed = seed;
    const auto episodes = make_soak_episodes(cfg);
    for (double t = 0.0; t < cfg.duration_s; t += 0.01) {
      std::size_t faulted = 0;
      for (std::size_t r = 0; r < cfg.relay_count; ++r) {
        const bool hit = std::any_of(
            episodes.begin(), episodes.end(), [&](const SoakEpisode& e) {
              return e.relay == r && t >= e.start_s &&
                     t < e.start_s + e.duration_s;
            });
        if (hit) ++faulted;
      }
      ASSERT_LT(faulted, cfg.relay_count)
          << "seed " << seed << ": whole mesh faulted at t=" << t;
    }
  }
}

TEST(SoakSchedule, RejectsDegenerateConfigs) {
  SoakConfig cfg;
  cfg.relay_count = 1;  // no mesh, no standby, nothing to soak
  EXPECT_THROW(make_soak_episodes(cfg), PreconditionError);
  cfg.relay_count = 2;
  cfg.duration_s = 6.0;  // lead + tail + margin leave no fault window
  EXPECT_THROW(make_soak_episodes(cfg), PreconditionError);
}

TEST(SoakRun, ShortSeededSoakUpholdsEveryInvariant) {
  SoakConfig cfg;
  cfg.relay_count = 3;
  cfg.duration_s = 7.0;
  cfg.seed = 5;
  cfg.seeds = 1;
  const SoakVerdict v = run_chaos_soak(cfg);
  ASSERT_TRUE(v.mesh());
  ASSERT_EQ(v.units.size(), 1u);
  const SoakUnit& u = v.units.front();

  EXPECT_TRUE(v.never_louder) << "worst window excess " << u.worst_excess_db
                              << " dB at t=" << u.worst_window_start_s;
  EXPECT_TRUE(v.gap_bounded) << "max gap " << u.max_reacquisition_gap_s
                             << " s";
  EXPECT_TRUE(v.allocation_clean);
  EXPECT_TRUE(u.passed);
  EXPECT_TRUE(v.passed());

  EXPECT_EQ(u.id, cfg.seed);
  EXPECT_EQ(std::get<SoakConfig>(v.config).relay_count, cfg.relay_count);
  EXPECT_EQ(u.schedule.size(), kSoakEpisodes);
  EXPECT_DOUBLE_EQ(u.served_s, cfg.duration_s);
  // The chaos actually landed: the monitor saw fault episodes.
  EXPECT_GE(u.fault_episodes, 1u);
  if (v.allocation_tracked) {
    EXPECT_GT(u.total_ticks, 0u);
  }
}

TEST(SoakRun, FleetSoakUpholdsEveryInvariant) {
  FleetSoakConfig cfg;
  cfg.devices = 16;
  cfg.sim_seconds = 2.5;
  const SoakVerdict v = run_fleet_soak(cfg);
  ASSERT_FALSE(v.mesh());
  EXPECT_TRUE(v.passed());
  ASSERT_FALSE(v.units.empty());
  if (v.allocation_tracked) {
    EXPECT_EQ(v.worker_heap_allocations, 0u);
  }
  for (std::size_t i = 0; i < v.units.size(); ++i) {
    const SoakUnit& u = v.units[i];
    if (i > 0) {
      EXPECT_LT(v.units[i - 1].id, u.id) << "units out of id order";
    }
    EXPECT_TRUE(u.passed) << "tenant " << u.id << " at " << u.worst_excess_db
                          << " dB";
    EXPECT_TRUE(std::isfinite(u.worst_excess_db)) << "judged without a window";
    // Windows are scored from the 1.5 s grace on; the start is the
    // window's own, a quarter second before its end.
    EXPECT_GE(u.worst_window_start_s, 1.25 - 1e-9) << "tenant " << u.id;
    EXPECT_LE(u.worst_window_start_s + 0.25, u.served_s + 1e-9);
    EXPECT_LT(u.profile, 3u);
    EXPECT_GT(u.arena_high_water, 0u);
  }
}

// The one number a JSON value may not hold: a bare inf or nan token.
bool has_bare_non_finite(const std::string& json) {
  for (const char* token : {"inf", "nan", "Infinity", "NaN"}) {
    for (std::size_t at = json.find(token); at != std::string::npos;
         at = json.find(token, at + 1)) {
      if (at == 0 || json[at - 1] != '"') return true;
    }
  }
  return false;
}

// The value after `"key": ` at its first occurrence, as text.
std::string json_value(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\": ");
  if (at == std::string::npos) return {};
  const std::size_t from = at + key.size() + 4;
  return json.substr(from, json.find_first_of(",}\n", from) - from);
}

TEST(SoakRun, ReportsSerializeToTheCiArtifact) {
  SoakConfig cfg;
  cfg.relay_count = 3;
  cfg.duration_s = 7.0;
  cfg.seed = 17;
  cfg.seeds = 1;
  const SoakVerdict mesh = run_chaos_soak(cfg);

  // A fleet verdict with a tenant that scored no window and one that did.
  SoakVerdict fleet;
  fleet.config = FleetSoakConfig{};
  fleet.units.resize(2);
  fleet.units[0].id = 3;
  fleet.units[1].id = 4;
  fleet.units[1].worst_excess_db = -1.0 / 3.0;
  fleet.units[1].worst_window_start_s = 1.25;

  const std::string mesh_json = soak_verdict_json(mesh);
  const std::string fleet_json = soak_verdict_json(fleet);
  for (const std::string& json : {mesh_json, fleet_json}) {
    for (const char* key :
         {"mode", "config", "passed", "never_louder", "gap_bounded",
          "allocation_clean", "allocation_tracked", "judged", "failed",
          "units", "id", "worst_excess_db", "worst_window_start_s",
          "served_s", "handoffs", "holds"}) {
      EXPECT_NE(json.find("\"" + std::string(key) + "\": "),
                std::string::npos)
          << "missing " << key << " in\n" << json;
    }
    EXPECT_FALSE(has_bare_non_finite(json)) << json;
  }
  for (const char* key : {"max_reacquisition_gap_s", "schedule", "hops",
                          "tx_steps", "allocating_ticks", "fault_episodes"}) {
    EXPECT_NE(mesh_json.find(key), std::string::npos) << "missing " << key;
  }
  for (const char* key : {"profile", "arena_high_water",
                          "worker_heap_allocations"}) {
    EXPECT_NE(fleet_json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_EQ(json_value(mesh_json, "mode"), "\"mesh\"");
  EXPECT_EQ(json_value(mesh_json, "id"), "17");
  EXPECT_EQ(json_value(fleet_json, "mode"), "\"fleet\"");

  // "No window scored" is null; every number reads back to its bits.
  EXPECT_EQ(json_value(fleet_json, "worst_excess_db"), "null");
  EXPECT_EQ(json_value(fleet_json, "worst_window_start_s"), "null");
  const std::size_t second = fleet_json.find("\"id\": 4");
  ASSERT_NE(second, std::string::npos);
  EXPECT_EQ(std::stod(json_value(fleet_json.substr(second), "worst_excess_db")),
            -1.0 / 3.0);
  EXPECT_EQ(std::stod(json_value(mesh_json, "worst_excess_db")),
            mesh.units.front().worst_excess_db);
}

}  // namespace
}  // namespace mute::sim
