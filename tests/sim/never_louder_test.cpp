// Oracle test for the one never-louder scorer (sim/never_louder.hpp). The
// fleet and the chaos soak each used to scan windows with their own loop;
// both loops are kept here as reference implementations, and the
// single-phase meter (the fleet's old semantics) and the half-overlap meter
// (the soak's, and now the fleet's, with a grace) must match them bit for
// bit: worst dB, worst time and window count.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "audio/generators.hpp"
#include "common/math_utils.hpp"
#include "common/rng.hpp"
#include "sim/mesh.hpp"
#include "sim/never_louder.hpp"

namespace mute::sim {
namespace {

struct FleetScan {
  double worst_excess_db = -std::numeric_limits<double>::infinity();
  double worst_excess_t_s = -1.0;
  std::size_t windows = 0;
};

// FleetRuntime::process_tenant_block's window accounting before the meter,
// its Tenant fields turned into locals; one tenant admitted at sample 0.
FleetScan fleet_reference(const Signal& res, const Signal& dist, double fs,
                          std::size_t win_skip_until) {
  FleetScan t;
  const std::size_t win_len = std::max<std::size_t>(
      1, static_cast<std::size_t>(kNeverLouderWindowS * fs));
  std::size_t win_pos = 0;
  std::uint64_t samples = 0;
  double win_res = 0.0;
  double win_dist = 0.0;
  for (std::size_t cursor = 0; cursor < res.size(); ++cursor) {
    const Sample at_ear = res[cursor];
    const double d = static_cast<double>(dist[cursor]);
    win_res += static_cast<double>(at_ear) * static_cast<double>(at_ear);
    win_dist += d * d;
    ++win_pos;
    ++samples;
    if (win_pos >= win_len) {
      const double mean_dist = win_dist / static_cast<double>(win_len);
      if (mean_dist > 1e-12 && samples >= win_skip_until) {
        const double excess_db =
            10.0 * std::log10((win_res + 1e-300) / win_dist);
        ++t.windows;
        if (excess_db > t.worst_excess_db) {
          t.worst_excess_db = excess_db;
          t.worst_excess_t_s = static_cast<double>(samples) / fs;
        }
      }
      win_pos = 0;
      win_res = 0.0;
      win_dist = 0.0;
    }
  }
  return t;
}

struct SoakScan {
  double worst_window_excess_db = -1e9;
  double worst_window_t_s = 0.0;
  std::size_t windows = 0;
};

// run_chaos_soak's half-overlapping scan before the meter (plus a window
// count).
SoakScan soak_reference(const Signal& res, const Signal& dist, double fs,
                        std::size_t first) {
  SoakScan report;
  const auto win = std::max<std::size_t>(
      1, static_cast<std::size_t>(kNeverLouderWindowS * fs));
  for (std::size_t i0 = first; i0 + win <= res.size(); i0 += win / 2) {
    double num = 0.0, den = 0.0;
    for (std::size_t i = i0; i < i0 + win; ++i) {
      num += static_cast<double>(res[i]) * static_cast<double>(res[i]);
      den += static_cast<double>(dist[i]) * static_cast<double>(dist[i]);
    }
    const double excess_db = power_to_db(num / std::max(den, 1e-20));
    ++report.windows;
    if (excess_db > report.worst_window_excess_db) {
      report.worst_window_excess_db = excess_db;
      report.worst_window_t_s = static_cast<double>(i0) / fs;
    }
  }
  return report;
}

// The single-phase meter as FleetRuntime drove it before it scored both
// phases (grace in samples, worst time the end of the worst window over
// fs); returns it for further checks.
NeverLouderMeter expect_fleet_semantics(const Signal& res, const Signal& dist,
                                        double fs, std::size_t grace) {
  NeverLouderMeter meter(never_louder_window(fs), grace);
  for (std::size_t i = 0; i < res.size(); ++i) {
    meter.push(static_cast<double>(res[i]), static_cast<double>(dist[i]));
  }
  const FleetScan ref = fleet_reference(res, dist, fs, grace);
  EXPECT_EQ(meter.windows(), ref.windows) << "grace " << grace;
  EXPECT_GT(ref.windows, 0u);
  EXPECT_EQ(meter.worst_db(), ref.worst_excess_db) << "grace " << grace;
  EXPECT_EQ(static_cast<double>(meter.worst_end()) / fs, ref.worst_excess_t_s)
      << "grace " << grace;
  EXPECT_EQ(meter.samples(), res.size());
  return meter;
}

WorstWindow expect_soak_semantics(const Signal& res, const Signal& dist,
                                  double fs, std::size_t first) {
  const WorstWindow worst = worst_half_overlapping_window(
      res, dist, never_louder_window(fs), first);
  const SoakScan ref = soak_reference(res, dist, fs, first);
  EXPECT_EQ(worst.windows, ref.windows);
  EXPECT_GT(ref.windows, 0u);
  EXPECT_EQ(worst.excess_db, ref.worst_window_excess_db);
  EXPECT_EQ(static_cast<double>(worst.start) / fs, ref.worst_window_t_s);
  return worst;
}

// The half-overlap meter as FleetRuntime drives it, with the grace set one
// window past `first`: both phases then score exactly the windows that
// start at or after `first`, which is the soak's scan from `first` when
// `first` is a multiple of half a window and no later window is silent.
HalfOverlapMeter expect_fleet_two_phase_semantics(const Signal& res,
                                                  const Signal& dist,
                                                  double fs,
                                                  std::size_t first) {
  const std::size_t win = never_louder_window(fs);
  HalfOverlapMeter meter(win, first + win);
  for (std::size_t i = 0; i < res.size(); ++i) {
    meter.push(static_cast<double>(res[i]), static_cast<double>(dist[i]));
  }
  const SoakScan ref = soak_reference(res, dist, fs, first);
  EXPECT_EQ(meter.windows(), ref.windows) << "first " << first;
  EXPECT_GT(ref.windows, 0u);
  EXPECT_EQ(meter.worst_db(), ref.worst_window_excess_db) << "first " << first;
  EXPECT_EQ(static_cast<double>(meter.worst_end() - win) / fs,
            ref.worst_window_t_s)
      << "first " << first;
  EXPECT_EQ(meter.samples(), res.size());
  return meter;
}

// 3 s at 16 kHz (4000-sample windows): a silent lead-in over which a
// calibration tone plays, a +9.5 dB cold-start transient that ends inside
// the grace, a -20 dB steady state, and a +3.5 dB burst over [34000,
// 38000) that straddles the non-overlapping boundary at 36000.
constexpr double kFs = 16000.0;
constexpr std::size_t kLeadIn = 8000;
constexpr std::size_t kTransientEnd = 12000;
constexpr std::size_t kGrace = 14000;
constexpr std::size_t kBurst = 34000;

void synthetic_record(Signal& res, Signal& dist) {
  const std::size_t n = 48000;
  Rng rng(2018);
  res.assign(n, 0.0f);
  dist.assign(n, 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    if (i < kLeadIn) {
      res[i] = static_cast<Sample>(
          0.05 * std::sin(2.0 * M_PI * 440.0 * static_cast<double>(i) / kFs));
      continue;
    }
    dist[i] = static_cast<Sample>(rng.gaussian(0.1));
    double gain = 0.1;
    if (i < kTransientEnd) gain = 3.0;
    if (i >= kBurst && i < kBurst + 4000) gain = 1.5;
    res[i] = static_cast<Sample>(gain * static_cast<double>(dist[i]));
  }
}

TEST(NeverLouderMeter, MatchesBothScannersOnASyntheticRecord) {
  Signal res, dist;
  synthetic_record(res, dist);

  // Without a grace the two silent lead-in windows are skipped and the
  // cold-start transient is the worst window; with it, the burst is.
  const NeverLouderMeter cold = expect_fleet_semantics(res, dist, kFs, 0);
  EXPECT_EQ(cold.windows(), 10u);
  EXPECT_EQ(cold.worst_end(), kTransientEnd);
  EXPECT_GT(cold.worst_db(), 9.0);
  const NeverLouderMeter single =
      expect_fleet_semantics(res, dist, kFs, kGrace);
  EXPECT_EQ(single.windows(), 9u);

  const WorstWindow both = expect_soak_semantics(res, dist, kFs, kTransientEnd);
  EXPECT_EQ(both.windows, 17u);
  EXPECT_EQ(both.start, kBurst);

  // One phase sees the burst split in two halves and passes it; the
  // second phase sees it whole and fails it.
  EXPECT_LT(single.worst_db(), both.excess_db);
  EXPECT_LE(single.worst_db(), kNeverLouderMarginDb);
  EXPECT_GT(both.excess_db, kNeverLouderMarginDb);

  // The fleet scores both phases, so it fails the burst as the soak does.
  const HalfOverlapMeter fleet =
      expect_fleet_two_phase_semantics(res, dist, kFs, kTransientEnd);
  EXPECT_EQ(fleet.windows(), 17u);
  EXPECT_EQ(fleet.worst_end(), kBurst + 4000);
  EXPECT_EQ(fleet.worst_db(), both.excess_db);
  EXPECT_GT(fleet.worst_db(), kNeverLouderMarginDb);
}

TEST(NeverLouderMeter, MatchesBothScannersOnTiesAndSilence) {
  // Every window of a square wave holds the same energies, so all windows
  // tie and both scans keep the earliest.
  Signal wave(48000);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    wave[i] = i % 2 == 0 ? 0.1f : -0.1f;
  }
  EXPECT_EQ(expect_fleet_semantics(wave, wave, kFs, 0).worst_end(), 4000u);
  EXPECT_EQ(expect_soak_semantics(wave, wave, kFs, 1000).start, 1000u);
  const HalfOverlapMeter tied =
      expect_fleet_two_phase_semantics(wave, wave, kFs, 2000);
  EXPECT_EQ(tied.worst_end(), 6000u);

  // A silent residual scores power_to_db's -240 dB floor. The fleet's old
  // score read lower there, the one place it differed from excess_db.
  const Signal silent(wave.size(), 0.0f);
  EXPECT_EQ(expect_soak_semantics(silent, wave, kFs, 0).excess_db, -240.0);
}

TEST(NeverLouderMeter, MatchesBothScannersOnAMeshRecord) {
  MeshSimConfig mesh;
  DeviceSimConfig& cfg = mesh.device_sim;
  cfg.relay_positions = {{2.0, 2.5, 1.5}, {2.2, 2.5, 1.5}};
  cfg.duration_s = 3.0;
  cfg.seed = 11;
  cfg.device.calibration_s = 1.0;
  cfg.device.selection_period_s = 0.5;
  cfg.device.lanc.fxlms.mu = 0.3;
  cfg.device.lanc.fxlms.leakage = 2e-4;
  audio::WhiteNoiseSource noise(0.1, 1011);
  const SystemResult r = run_mesh_simulation(noise, mesh).system;
  const double fs = r.sample_rate;

  // The fleet's default grace, and the soak's start after calibration.
  const NeverLouderMeter meter = expect_fleet_semantics(
      r.residual, r.disturbance, fs, static_cast<std::size_t>(1.5 * fs));
  EXPECT_GT(meter.worst_db(), -240.0);  // above power_to_db's clamp
  expect_soak_semantics(r.residual, r.disturbance, fs,
                        static_cast<std::size_t>(1.2 * fs));
  // The fleet's 1.5 s grace is one window past 1.25 s.
  expect_fleet_two_phase_semantics(r.residual, r.disturbance, fs,
                                   static_cast<std::size_t>(1.25 * fs));
}

}  // namespace
}  // namespace mute::sim
