#include "sim/soak.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "audio/generators.hpp"
#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "common/rng.hpp"

namespace mute::sim {

namespace {

constexpr double kCalibrationS = 1.0;
// Leave the device time to calibrate, associate and converge before the
// chaos starts, and time to recover after the last episode ends.
constexpr double kChaosLeadS = 3.5;
constexpr double kChaosTailS = 1.5;

// Invariant bounds besides the shared never-louder window and margin.
// Longest tolerated out-of-kRunning gap. Generous against the warm
// (~0.33 s) path: chaos schedules can fault the standby mid-handoff.
constexpr double kMaxGapBoundS = 1.0;
// Steady state must be allocation-free: at most this fraction of device
// ticks may heap-allocate (control events — selection rounds, handoffs —
// are the only legitimate allocators). Checked only when the operator-new
// interposition is compiled in.
constexpr double kAllocTickFraction = 1e-3;

const FaultScenario kSoakKinds[] = {
    FaultScenario::kRelayDropout, FaultScenario::kJammerBurst,
    FaultScenario::kDeepFade, FaultScenario::kImpulseNoise,
    FaultScenario::kClockDrift,
};

/// Relays a candidate episode would leave simultaneously faulted.
std::size_t faulted_at_overlap(const std::vector<SoakEpisode>& episodes,
                               const SoakEpisode& cand,
                               std::size_t relay_count) {
  std::vector<bool> faulted(relay_count, false);
  faulted[cand.relay] = true;
  for (const auto& e : episodes) {
    const bool overlaps = e.start_s < cand.start_s + cand.duration_s &&
                          cand.start_s < e.start_s + e.duration_s;
    if (overlaps) faulted[e.relay] = true;
  }
  return static_cast<std::size_t>(
      std::count(faulted.begin(), faulted.end(), true));
}

}  // namespace

std::vector<SoakEpisode> make_soak_episodes(const SoakConfig& config) {
  ensure(config.relay_count >= 2, "soak needs a mesh (>= 2 relays)");
  ensure(config.duration_s > kChaosLeadS + kChaosTailS + 1.0,
         "soak too short for a chaos window");
  Rng rng(config.seed * 0x9E3779B97F4A7C15ull + 1);
  const double lo = kChaosLeadS;
  const double hi = config.duration_s - kChaosTailS;
  std::vector<SoakEpisode> episodes;
  episodes.reserve(config.episode_count);
  for (std::size_t i = 0; i < config.episode_count; ++i) {
    // Redraw until at least one relay stays healthy for the whole episode
    // (a fully-faulted mesh has no standby to hand off to, so "bounded
    // re-acquisition" would be unfalsifiable). Bounded retries keep the
    // generator total; a candidate that cannot be placed is dropped.
    for (int attempt = 0; attempt < 16; ++attempt) {
      SoakEpisode e;
      e.relay = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(config.relay_count) - 1));
      e.kind = kSoakKinds[rng.uniform_int(0, 4)];
      e.duration_s = rng.uniform(0.4, 1.2);
      e.start_s = rng.uniform(lo, std::max(lo + 0.1, hi - e.duration_s));
      if (e.kind == FaultScenario::kJammerBurst) {
        // Pin the jammer to the victim's home channel (the planner's
        // frequency-division assignment is relay k -> channel k), so a
        // supervised mesh can dodge by hopping.
        e.jammer_channel = static_cast<int>(e.relay);
      }
      if (faulted_at_overlap(episodes, e, config.relay_count) <
          config.relay_count) {
        episodes.push_back(e);
        break;
      }
    }
  }
  std::sort(episodes.begin(), episodes.end(),
            [](const SoakEpisode& a, const SoakEpisode& b) {
              return a.start_s < b.start_s;
            });
  return episodes;
}

SoakReport run_chaos_soak(const SoakConfig& config) {
  ensure(config.relay_count >= 2 && config.relay_count <= 8,
         "soak supports 2..8 relays");
  const auto episodes = make_soak_episodes(config);

  MeshSimConfig mesh;
  DeviceSimConfig& dc = mesh.device_sim;
  dc.scene = acoustics::Scene::paper_office();
  // Relays strung between the noise source (x=1.0) and the ear (x=5.0):
  // every one leads the wavefront, nearer relays lead more.
  dc.relay_positions.clear();
  for (std::size_t k = 0; k < config.relay_count; ++k) {
    dc.relay_positions.push_back(
        {2.0 + 0.2 * static_cast<double>(k), 2.5, 1.5});
  }
  dc.duration_s = config.duration_s;
  dc.seed = config.seed;
  dc.relay_faults.assign(config.relay_count, rf::FaultSchedule{});
  for (const auto& e : episodes) {
    dc.relay_faults[e.relay].merge(make_fault_schedule(
        e.kind, e.start_s, e.duration_s, e.jammer_channel));
  }
  dc.device.calibration_s = kCalibrationS;
  dc.device.selection_period_s = 0.5;
  dc.device.hold_timeout_s = 0.3;
  dc.device.lanc.fxlms.mu = 0.3;
  dc.device.lanc.fxlms.leakage = 2e-4;
  mesh.spectrum_supervision = config.spectrum_supervision;

  audio::WhiteNoiseSource noise(0.1, config.seed * 31 + 7);
  const MeshSimResult r = run_mesh_simulation(noise, mesh);

  SoakReport report;
  report.seed = config.seed;
  report.relay_count = config.relay_count;
  report.duration_s = config.duration_s;
  report.episodes = episodes;

  // Invariant 1: never meaningfully louder than passive, in any window
  // after the quiet power-up lead-in. Uses window energy (not samples):
  // the bound is about audible loudness, not instantaneous overshoot.
  const auto& res = r.system.residual;
  const auto& dist = r.system.disturbance;
  const double fs = r.system.sample_rate;
  const auto win = std::max<std::size_t>(
      1, static_cast<std::size_t>(kNeverLouderWindowS * fs));
  const auto first = static_cast<std::size_t>((kCalibrationS + 0.2) * fs);
  for (std::size_t i0 = first; i0 + win <= res.size(); i0 += win / 2) {
    double num = 0.0, den = 0.0;
    for (std::size_t i = i0; i < i0 + win; ++i) {
      num += static_cast<double>(res[i]) * static_cast<double>(res[i]);
      den += static_cast<double>(dist[i]) * static_cast<double>(dist[i]);
    }
    const double excess_db = power_to_db(num / std::max(den, 1e-20));
    if (excess_db > report.worst_window_excess_db) {
      report.worst_window_excess_db = excess_db;
      report.worst_window_t_s = static_cast<double>(i0) / fs;
    }
  }
  report.never_louder = report.worst_window_excess_db <= kNeverLouderMarginDb;

  // Invariant 2: bounded re-acquisition.
  report.max_reacquisition_gap_s = r.system.max_reacquisition_gap_s;
  report.gap_bounded = r.system.max_reacquisition_gap_s <= kMaxGapBoundS;

  // Invariant 3: allocation-free steady state (vacuous without the
  // operator-new interposition — reported as such, never silently green).
  report.allocation_tracked = r.allocation_tracking;
  report.allocating_ticks = r.allocating_ticks;
  report.total_ticks = r.total_ticks;
  if (r.allocation_tracking && r.total_ticks > 0) {
    report.allocation_clean =
        static_cast<double>(r.allocating_ticks) <=
        kAllocTickFraction * static_cast<double>(r.total_ticks);
  }

  report.handoff_count = r.system.handoff_count;
  report.shadow_handoff_count = r.system.shadow_handoff_count;
  report.hold_count = r.system.device_hold_count;
  report.hop_count = r.hop_count;
  report.tx_step_count = r.tx_step_count;
  report.link_fault_episodes = r.system.link_fault_episodes;
  return report;
}

std::string soak_reports_json(const std::vector<SoakReport>& reports) {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const SoakReport& r = reports[i];
    os << "  {\"seed\": " << r.seed << ", \"relays\": " << r.relay_count
       << ", \"duration_s\": " << r.duration_s
       << ", \"passed\": " << (r.passed() ? "true" : "false")
       << ",\n   \"never_louder\": " << (r.never_louder ? "true" : "false")
       << ", \"worst_window_excess_db\": " << r.worst_window_excess_db
       << ", \"worst_window_t_s\": " << r.worst_window_t_s
       << ",\n   \"gap_bounded\": " << (r.gap_bounded ? "true" : "false")
       << ", \"max_reacquisition_gap_s\": " << r.max_reacquisition_gap_s
       << ",\n   \"allocation_clean\": "
       << (r.allocation_clean ? "true" : "false")
       << ", \"allocation_tracked\": "
       << (r.allocation_tracked ? "true" : "false")
       << ", \"allocating_ticks\": " << r.allocating_ticks
       << ", \"total_ticks\": " << r.total_ticks
       << ",\n   \"handoffs\": " << r.handoff_count
       << ", \"shadow_handoffs\": " << r.shadow_handoff_count
       << ", \"holds\": " << r.hold_count << ", \"hops\": " << r.hop_count
       << ", \"tx_steps\": " << r.tx_step_count
       << ", \"fault_episodes\": " << r.link_fault_episodes
       << ",\n   \"schedule\": [";
    for (std::size_t j = 0; j < r.episodes.size(); ++j) {
      const SoakEpisode& e = r.episodes[j];
      os << (j ? ", " : "") << "{\"relay\": " << e.relay << ", \"kind\": \""
         << fault_scenario_name(e.kind) << "\", \"start_s\": " << e.start_s
         << ", \"duration_s\": " << e.duration_s
         << ", \"jammer_channel\": " << e.jammer_channel << "}";
    }
    os << "]}" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  os << "]\n";
  return os.str();
}

}  // namespace mute::sim
