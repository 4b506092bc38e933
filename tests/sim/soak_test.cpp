// Chaos-soak harness tests (tentpole, part 3): the episode generator is a
// deterministic pure function of the config with hard safety properties
// (episodes inside the post-calibration window, always >= 1 healthy relay,
// jammers pinned to the victim's home channel), and a short seeded soak
// run upholds every invariant the harness asserts.
#include <algorithm>
#include <cmath>
#include <cstddef>

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
  const SoakReport report = run_chaos_soak(cfg);

  EXPECT_TRUE(report.never_louder)
      << "worst window excess " << report.worst_window_excess_db << " dB at t="
      << report.worst_window_t_s;
  EXPECT_TRUE(report.gap_bounded)
      << "max gap " << report.max_reacquisition_gap_s << " s";
  EXPECT_TRUE(report.allocation_clean);
  EXPECT_TRUE(report.passed());

  EXPECT_EQ(report.seed, cfg.seed);
  EXPECT_EQ(report.relay_count, cfg.relay_count);
  EXPECT_EQ(report.episodes.size(), kSoakEpisodes);
  // The chaos actually landed: the monitor saw fault episodes.
  EXPECT_GE(report.link_fault_episodes, 1u);
  if (report.allocation_tracked) {
    EXPECT_GT(report.total_ticks, 0u);
  }
}

TEST(SoakRun, ReportsSerializeToTheCiArtifact) {
  SoakConfig cfg;
  cfg.relay_count = 3;
  cfg.duration_s = 7.0;
  cfg.seed = 17;
  const SoakReport report = run_chaos_soak(cfg);
  const std::string json = soak_reports_json({report});

  for (const char* key :
       {"\"seed\"", "\"relays\"", "\"passed\"", "\"never_louder\"",
        "\"gap_bounded\"", "\"allocation_clean\"",
        "\"max_reacquisition_gap_s\"", "\"schedule\"", "\"hops\"",
        "\"handoffs\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_NE(json.find("\"seed\": 17"), std::string::npos);
}

}  // namespace
}  // namespace mute::sim
