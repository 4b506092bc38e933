// LinkMonitor: the streaming health estimator for the received wireless
// reference. Detector levels mirror the measured FM chain: healthy demod
// audio ~0.09 rms, carrier-off discriminator noise ~0.33 rms, jammer
// capture ~0.0015 rms residue.
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/link_monitor.hpp"

namespace mute::core {
namespace {

constexpr double kFs = 16000.0;

/// Feed `seconds` of white noise at `rms` into the monitor; returns the
/// fraction of samples it reported healthy.
double feed_noise(LinkMonitor& mon, Rng& rng, double rms, double seconds) {
  const auto n = static_cast<std::size_t>(seconds * kFs);
  std::size_t healthy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    (void)mon.process(static_cast<Sample>(rms * rng.gaussian()));
    if (mon.healthy()) ++healthy;
  }
  return static_cast<double>(healthy) / static_cast<double>(n);
}

TEST(LinkMonitor, HealthyReferencePassesThrough) {
  LinkMonitor mon(LinkMonitorOptions{}, kFs);
  Rng rng(1);
  EXPECT_GT(feed_noise(mon, rng, 0.09, 2.0), 0.999);
  EXPECT_EQ(mon.fault_episodes(), 0u);
  // Pass-through: a healthy sample comes back unchanged.
  const Sample x = 0.05f;
  EXPECT_EQ(mon.process(x), x);
}

TEST(LinkMonitor, FlagsDropoutNoiseSurgeAndRecovers) {
  LinkMonitor mon(LinkMonitorOptions{}, kFs);
  Rng rng(2);
  feed_noise(mon, rng, 0.09, 2.0);  // establish the healthy baseline
  // Carrier loss: the discriminator emits ~0.33 rms wideband noise. The
  // monitor must flag within tens of milliseconds, squelch to zero, and
  // stay flagged for the whole outage.
  const double healthy_frac = feed_noise(mon, rng, 0.33, 0.5);
  EXPECT_LT(healthy_frac, 0.05);  // flagged after < 25 ms of the 500 ms
  EXPECT_FALSE(mon.healthy());
  EXPECT_TRUE(mon.flags() & LinkFlags::kNoiseBurst);
  EXPECT_EQ(mon.process(0.3f), 0.0f);  // squelched while unhealthy
  EXPECT_EQ(mon.fault_episodes(), 1u);
  // Link returns: recovery after the hysteresis hold, not instantly.
  const double back = feed_noise(mon, rng, 0.09, 1.0);
  EXPECT_GT(back, 0.8);
  EXPECT_LT(back, 0.999);  // the recover hold keeps it flagged briefly
  EXPECT_TRUE(mon.healthy());
}

TEST(LinkMonitor, NonFiniteFlagsInstantlyAndSanitizes) {
  LinkMonitor mon(LinkMonitorOptions{}, kFs);
  Rng rng(3);
  feed_noise(mon, rng, 0.09, 1.0);
  const Sample bad = std::numeric_limits<Sample>::quiet_NaN();
  const Sample out = mon.process(bad);
  EXPECT_EQ(out, 0.0f);  // never forwards NaN downstream
  EXPECT_FALSE(mon.healthy());  // no hysteresis for poison
  EXPECT_TRUE(mon.flags() & LinkFlags::kNonFinite);
  const Sample inf = std::numeric_limits<Sample>::infinity();
  EXPECT_EQ(mon.process(inf), 0.0f);
}

TEST(LinkMonitor, SilenceFlagsAfterHold) {
  // Jammer capture collapses the demod output to ~1.5e-3 rms — below the
  // silence threshold, but only sustained silence counts.
  LinkMonitor mon(LinkMonitorOptions{}, kFs);
  Rng rng(4);
  feed_noise(mon, rng, 0.09, 1.0);
  const double frac_short = feed_noise(mon, rng, 0.0015, 0.05);
  EXPECT_GT(frac_short, 0.99);  // 50 ms of quiet: not yet a fault
  feed_noise(mon, rng, 0.0015, 0.3);
  EXPECT_FALSE(mon.healthy());  // 350 ms total: silence hold expired
  EXPECT_TRUE(mon.flags() & LinkFlags::kSilent);
}

TEST(LinkMonitor, LoudOnsetAfterQuietIsNotADropout) {
  // The absolute min-power gate: jumping from near-silence to a loud but
  // sane ambient level must not read as carrier loss.
  LinkMonitorOptions opts;
  LinkMonitor mon(opts, kFs);
  Rng rng(5);
  feed_noise(mon, rng, 0.02, 2.0);  // quiet room
  const double frac = feed_noise(mon, rng, 0.12, 1.0);  // loud onset
  EXPECT_GT(frac, 0.999) << "loud-but-sane onset must stay healthy";
  EXPECT_EQ(mon.fault_episodes(), 0u);
}

TEST(LinkMonitor, SaturationIsFlagged) {
  LinkMonitor mon(LinkMonitorOptions{}, kFs);
  Rng rng(6);
  feed_noise(mon, rng, 0.09, 1.0);
  for (int i = 0; i < 400; ++i) (void)mon.process(1.0f);
  EXPECT_FALSE(mon.healthy());
  EXPECT_TRUE(mon.flags() & LinkFlags::kSaturated);
}

TEST(LinkMonitor, ProcessIsAllocationFree) {
  if (!RtAllocationGuard::interposition_enabled()) {
    GTEST_SKIP() << "allocation interposition not enabled in this build";
  }
  LinkMonitor mon(LinkMonitorOptions{}, kFs);
  Rng rng(8);
  feed_noise(mon, rng, 0.09, 0.1);  // warm up
  RtAllocationGuard guard(RtAllocationGuard::Mode::kCount, "link-monitor");
  for (int i = 0; i < 4096; ++i) {
    (void)mon.process(static_cast<Sample>(0.09 * rng.gaussian()));
  }
  EXPECT_EQ(guard.allocations_since_entry(), 0u);
}

TEST(LinkMonitor, CountsUnhealthySamplesAndEpisodes) {
  LinkMonitor mon(LinkMonitorOptions{}, kFs);
  Rng rng(9);
  feed_noise(mon, rng, 0.09, 1.0);
  feed_noise(mon, rng, 0.33, 0.3);  // episode 1
  feed_noise(mon, rng, 0.09, 1.0);
  feed_noise(mon, rng, 0.33, 0.3);  // episode 2
  feed_noise(mon, rng, 0.09, 1.0);
  EXPECT_EQ(mon.fault_episodes(), 2u);
  // Each 300 ms burst was flagged nearly end-to-end (minus detect, plus
  // the 150 ms recovery hold).
  const auto flagged_s =
      static_cast<double>(mon.unhealthy_samples()) / kFs;
  EXPECT_GT(flagged_s, 0.7);
  EXPECT_LT(flagged_s, 1.1);
}

}  // namespace
}  // namespace mute::core
