// Fleet-serving benchmark program: one workload, one seed, one run.
//
// An edge service for MUTE ears (paper Section 4.3) is judged on how many
// devices it holds in real time and on whether every block meets its
// deadline. This binary drives sim::FleetRuntime from one process with
// min(4, available cores) lanes and measures it two ways, interleaved in
// rounds over the run (see Plan):
//
//   closed loop  back-to-back run_blocks(1) calls, one selection period per
//                segment: capacity (device-seconds per wall second) and CPU
//                cost per device-sample, as medians over segments;
//   open loop    blocks paced at the audio rate: block b is due when its
//                last sample has arrived, t0 + (b + 1) * block / fs, and its
//                latency runs from that due time until run_blocks returns,
//                so a stall is charged to every block queued behind it.
//
// Every timing figure is scaled to a nominal host speed, measured by a
// fixed kernel probed before and after each measured interval
// (reference.hpp): on the shared reference host per-core speed drifts by
// more than the bounds.
//
// Correctness gates run every time: no worker-lane heap allocation, no
// tenant louder than passive, and a single-tenant fleet bit-identical to
// run_device_simulation. With --trace 1 the run also records spans, times
// the setup layers, measures a one-lane fleet and replays one tenant per
// profile layer by layer (ledger.hpp); it then reports the per-layer
// metrics instead of the end-to-end ones.
//
// Usage: mute_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--smoke] [--out result.json]
//        mute_e2e --repro arena_leak|intermittent_rf
// A traced run with --out writes its spans beside the result, to
// result.trace.json (trace_path_for).
// bench/e2e/run.py builds this binary and is the command to run.
#include <sched.h>
#include <time.h>
#include <unistd.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "audio/generators.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "ledger.hpp"
#include "reference.hpp"
#include "rf/relay.hpp"
#include "sim/fleet.hpp"
#include "sim/scenarios.hpp"
#include "sim/system.hpp"
#include "trace.hpp"

namespace {

using e2e::Clock;
using e2e::HostSpeed;
using e2e::seconds_between;
using e2e::SpanScope;
using e2e::Tracer;
using mute::sim::FleetProfile;

constexpr double kLouderMarginDb = 3.0;  // the never-louder contract
constexpr std::size_t kSetupRepeats = 3;  // setup_s takes their median
constexpr std::size_t kWindows = 6;       // closed/paced rounds per run
// What a tenant's arena holds before its first selection round.
constexpr double kArenaBaseMb = 1.0;
constexpr double kArenaHeadroom = 3.0;  // arena_bytes_for

// ---------------------------------------------------------------- workloads

struct ProfileSpec {
  mute::sim::DeviceSimConfig config;
  std::uint64_t noise_seed = 0;
};

struct Workload {
  std::string name;
  std::size_t tenants = 0;
  std::size_t block_samples = 256;
  std::size_t churn_every = 0;  // blocks between churn steps; 0 = none
  std::vector<ProfileSpec> profiles;
  // Measured arena growth per served second: the selection-round leak
  // (README, "Arena sizing").
  double arena_growth_mb_per_s = 0.0;
};

std::uint64_t draw(mute::Rng& rng) { return rng.engine()() >> 16; }

// Paper-default device over one relay and its FM link: 2 s calibration,
// 256 secondary taps, 256 causal + <=192 non-causal LANC taps, 1 s
// selection period, white noise from a 6 s looped profile.
ProfileSpec paper_default_profile(mute::Rng& rng) {
  ProfileSpec p;
  p.config.duration_s = 6.0;
  p.config.use_rf_link = true;
  p.config.seed = draw(rng);
  // A fixed noise record, as on the mesh: over ten seeded records the
  // residual spread 6%, half its bound; with this one it spreads 0.1%.
  p.noise_seed = 776;
  return p;
}

// Compact device over four relays, each on its own FM chain, strung
// between the source and the ear as in bench/failover.
ProfileSpec compact_mesh_profile(mute::Rng& rng, bool relay0_dropout) {
  ProfileSpec p;
  mute::sim::DeviceSimConfig& cfg = p.config;
  cfg.duration_s = 3.0;
  cfg.use_rf_link = true;
  for (std::size_t k = 0; k < 4; ++k) {
    cfg.relay_positions.push_back(
        {2.0 + 0.2 * static_cast<double>(k), 2.5, 1.5});
  }
  cfg.device.calibration_s = 0.25;
  cfg.device.selection_period_s = 0.5;
  cfg.device.secondary_taps = 96;
  cfg.device.lanc.fxlms.causal_taps = 128;
  if (relay0_dropout) {
    // Inside the looped region, so the dropout recurs on every pass.
    cfg.relay_faults = {mute::sim::make_fault_schedule(
        mute::sim::FaultScenario::kRelayDropout, 1.5, 0.5)};
    cfg.device.hold_timeout_s = 0.3;
  }
  cfg.seed = draw(rng);
  // Fixed noise records. Over four relays a profile's cancellation is
  // bimodal in its noise record (about 2.2 or 3.4 dB), so with two
  // profiles a seeded record would move the workload's residual between
  // seeds by more than its bound. The seed still draws the RF chains, the
  // device seeds, the admission order and the churn choices.
  p.noise_seed = relay0_dropout ? 778 : 777;
  return p;
}

std::optional<Workload> make_workload(const std::string& name,
                                      mute::Rng& rng) {
  // Each load keeps the median block well inside its deadline even when
  // the shared host runs at half speed, so that a backlog never builds and
  // the latency stays proportional to the work (README, "Workloads").
  Workload w;
  w.name = name;
  if (name == "steady_1relay" || name == "fine_block_1relay") {
    const bool fine = name == "fine_block_1relay";
    w.tenants = fine ? 16 : 64;
    w.block_samples = fine ? 64 : 512;
    w.profiles.push_back(paper_default_profile(rng));
    w.arena_growth_mb_per_s = 1.1;
  } else if (name == "mesh4_churn") {
    w.tenants = 24;
    w.block_samples = 512;
    w.churn_every = 8;
    w.profiles.push_back(compact_mesh_profile(rng, false));
    w.profiles.push_back(compact_mesh_profile(rng, true));
    w.arena_growth_mb_per_s = 4.4;
  } else {
    return std::nullopt;
  }
  return w;
}

std::vector<FleetProfile> synthesize(const Workload& w) {
  std::vector<FleetProfile> out;
  for (const ProfileSpec& spec : w.profiles) {
    mute::audio::WhiteNoiseSource noise(0.1, spec.noise_seed);
    out.push_back(mute::sim::make_fleet_profile(noise, spec.config,
                                                /*loop_steady_state=*/true));
  }
  return out;
}

// ------------------------------------------------------------------ helpers

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// CPU time of every thread of the process.
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

rusage usage_now() {
  rusage r{};
  getrusage(RUSAGE_SELF, &r);
  return r;
}

std::size_t available_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t blocks_for(double seconds, double fs, std::size_t block) {
  return static_cast<std::size_t>(
      std::ceil(seconds * fs / static_cast<double>(block)));
}

// ------------------------------------------------------------ fleet harness

// Owns one FleetRuntime and the seeded admission sequence: each admitted
// tenant gets a seeded profile choice and device seed, and records its
// residual for the cancellation metric.
class FleetHarness {
 public:
  struct Tenant {
    std::uint64_t id = 0;
    std::size_t profile = 0;
    std::uint64_t seed = 0;
  };

  FleetHarness(const std::vector<FleetProfile>& profiles, std::size_t lanes,
               std::size_t tenants, std::size_t block_samples,
               std::size_t arena_bytes, mute::Rng& rng, Tracer& tracer,
               std::string trace)
      : fleet_(config(profiles.front(), lanes, tenants, block_samples,
                      arena_bytes)),
        rng_(rng),
        tracer_(tracer),
        trace_(std::move(trace)) {
    for (const FleetProfile& p : profiles) {
      pids_.push_back(fleet_.add_profile(p));
    }
  }

  // Arena slots: a replacement admits while one drains.
  static std::size_t slots(std::size_t tenants) { return tenants + 2; }

  static mute::sim::FleetConfig config(const FleetProfile& profile,
                                       std::size_t lanes, std::size_t tenants,
                                       std::size_t block_samples,
                                       std::size_t arena_bytes) {
    mute::sim::FleetConfig fc;
    fc.workers = lanes;
    fc.max_tenants = slots(tenants);
    fc.arena_bytes = arena_bytes;
    fc.block_samples = block_samples;
    // Never-louder windows are scored once the device has powered up:
    // calibration, its first selection round, then the 0.75 s NLMS
    // transient that FleetConfig's 1.5 s default allows the compact device
    // (0.25 s calibration + 0.5 s period). Before that the ear still hears
    // the calibration noise ringing out of the plant.
    const mute::core::MuteDeviceConfig& dev = profile.streams.device;
    fc.invariant_grace_s = dev.calibration_s + dev.selection_period_s + 0.75;
    // One tenant per work item, so the pool's work stealing runs two
    // selection rounds (5-9 ms, the longest items) that fall in one block
    // on different lanes. A batch of several tenants would run them back
    // to back, and a block's latency would follow how the rounds happened
    // to be batched.
    fc.batch_tenants = 1;
    return fc;
  }

  void admit() {
    SpanScope span(tracer_, "sim.fleet.admit", trace_);
    Tenant t;
    t.profile = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(pids_.size()) - 1));
    t.seed = draw(rng_);
    t.id = fleet_.admit(pids_[t.profile], t.seed, /*capture_residual=*/true);
    admitted_.push_back(t);
    live_.push_back(t.id);
    control_pending_ = true;
  }

  void drain_oldest() {
    SpanScope span(tracer_, "sim.fleet.drain", trace_);
    fleet_.drain(live_.front());
    live_.pop_front();
    control_pending_ = true;
  }

  struct Step {
    std::uint64_t samples = 0;  // device-samples served
    bool control = false;       // the block applied an admit or an evict
  };

  // One scheduling quantum.
  Step step() {
    Step out;
    out.control = control_pending_ || evict_next_;
    out.samples = static_cast<std::uint64_t>(fleet_.live_tenants()) *
                  fleet_.block_samples();
    evict_next_ = control_pending_ && fleet_.live_tenants() > live_.size();
    control_pending_ = false;
    fleet_.run_blocks(1);
    return out;
  }

  mute::sim::FleetRuntime& runtime() { return fleet_; }
  const std::vector<Tenant>& admitted() const { return admitted_; }
  const std::deque<std::uint64_t>& live() const { return live_; }

  /// Every tenant's stats: evicted ones from their snapshot, live ones now.
  std::vector<mute::sim::TenantStats> all_stats() const {
    std::vector<mute::sim::TenantStats> out = fleet_.completed();
    for (const std::uint64_t id : live_) out.push_back(fleet_.stats(id));
    return out;
  }

 private:
  mute::sim::FleetRuntime fleet_;
  std::vector<std::size_t> pids_;
  mute::Rng& rng_;
  Tracer& tracer_;
  std::string trace_;
  std::vector<Tenant> admitted_;
  std::deque<std::uint64_t> live_;
  bool control_pending_ = false;  // admit/drain since the last block
  bool evict_next_ = false;       // a drained tenant is evicted next block
};

// Blocks over which warm_up admits the first cohort. Without churn, one
// selection period, so that the tenants' selection rounds do not all land
// in one block. With churn, one churn cycle, a tenant per churn step: the
// cohort then starts measurement with the spread of ages a churning fleet
// keeps. Admitted within one period, the mesh cohort went through its
// profiles' faults in step, and its first two simulated seconds of
// measurement served about 30% fewer devices than the rest of the run.
std::size_t admission_blocks(const Workload& w, std::size_t tenants,
                             std::size_t churn_every) {
  if (churn_every > 0) return tenants * churn_every;
  const ProfileSpec& p = w.profiles.front();
  return blocks_for(p.config.device.selection_period_s,
                    p.config.scene.sample_rate, w.block_samples);
}

// Admits `tenants` evenly across `spread` blocks and runs until the last
// one has calibrated and finished its first round. Returns the busy
// seconds of the blocks that constructed a tenant.
std::vector<double> warm_up(FleetHarness& harness, std::size_t tenants,
                            std::size_t spread, const FleetProfile& profile,
                            Tracer& tracer, const std::string& trace) {
  SpanScope span(tracer, "sim.fleet.warmup", trace);
  const mute::core::MuteDeviceConfig& dev = profile.streams.device;
  const double fs = profile.streams.sample_rate;
  const std::size_t block = harness.runtime().block_samples();
  const std::size_t total =
      spread +
      blocks_for(dev.calibration_s + dev.selection_period_s + 0.1, fs, block);
  std::vector<double> control_busy;
  std::size_t next = 0;
  for (std::size_t b = 0; b < total; ++b) {
    while (next < tenants && next * spread / tenants <= b) {
      harness.admit();
      ++next;
    }
    const auto t0 = Clock::now();
    if (harness.step().control) {
      control_busy.push_back(seconds_between(t0, Clock::now()));
    }
  }
  return control_busy;
}

double warm_up_seconds(const Workload& w, std::size_t spread) {
  const ProfileSpec& p = w.profiles.front();
  const mute::core::MuteDeviceConfig& dev = p.config.device;
  return static_cast<double>(spread * w.block_samples) /
             p.config.scene.sample_rate +
         dev.selection_period_s + dev.calibration_s + 0.1;
}

// Per-tenant arena: kArenaHeadroom times what a tenant is measured to need
// over its lifetime, so a library change that allocates more per round
// shows as a larger peak_rss_mb or arena metric rather than exhausting an
// arena and aborting the run. The slab comes from malloc and untouched
// pages cost no RSS, so the headroom is nearly free. The slab for `slots`
// tenants is kept within half of physical memory.
std::size_t arena_bytes_for(const Workload& w, double lifetime_s,
                            std::size_t slots) {
  const double need_mb = kArenaBaseMb + w.arena_growth_mb_per_s * lifetime_s;
  const double physical_mb = static_cast<double>(sysconf(_SC_PHYS_PAGES)) *
                             static_cast<double>(sysconf(_SC_PAGESIZE)) /
                             1048576.0;
  const double mb = std::min(kArenaHeadroom * need_mb,
                             0.5 * physical_mb / static_cast<double>(slots));
  return static_cast<std::size_t>(std::ceil(mb)) << 20;
}

// ------------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;  // what the run reports (per --trace)
  std::vector<Metric> info;     // printed and saved, not reported
  std::vector<std::pair<std::string, bool>> gates;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool correct() const {
    for (const auto& g : gates) {
      if (!g.second) return false;
    }
    return true;
  }
};

// ------------------------------------------------------------------- gates

// A single-tenant fleet with a hard admit computes the same at-ear
// residual as run_device_simulation on the same config, bit for bit.
bool single_tenant_identical(const Workload& w) {
  const ProfileSpec& spec = w.profiles.front();
  mute::audio::WhiteNoiseSource noise(0.1, spec.noise_seed);
  const mute::sim::SystemResult ref =
      mute::sim::run_device_simulation(noise, spec.config);
  mute::sim::FleetConfig fc;
  fc.workers = 1;
  fc.max_tenants = 1;
  fc.block_samples = w.block_samples;
  fc.arena_bytes = arena_bytes_for(w, spec.config.duration_s, fc.max_tenants);
  fc.ramp_s = 0.0;
  mute::sim::FleetRuntime fleet(fc);
  const FleetProfile profile =
      mute::sim::make_fleet_profile(noise, spec.config);
  const std::size_t pid = fleet.add_profile(profile);
  const std::uint64_t id = fleet.admit(pid, spec.config.device.seed, true);
  fleet.run_blocks(profile.length() / w.block_samples + 2);
  const mute::Signal& got = fleet.captured_residual(id);
  return got.size() == ref.residual.size() &&
         std::memcmp(got.data(), ref.residual.data(),
                     got.size() * sizeof(mute::Sample)) == 0;
}

// ------------------------------------------------------------ traced extras

struct SetupLayers {
  double prepare_s = 0.0;
  double generate_s = 0.0;
  double build_path_s = 0.0;
  double relay_link_s = 0.0;
};

// Time one prepare_device_streams call per profile, then the steps inside
// it on the same noise record: generate, build_path + apply, and
// RelayLink::process per relay.
SetupLayers time_setup_layers(const Workload& w, Tracer& tracer,
                              const std::string& trace) {
  SetupLayers out;
  const auto timed = [&](const char* name, auto&& fn) {
    const std::uint64_t id = tracer.begin(name, trace);
    fn();
    tracer.end(id);
    return tracer.seconds(id);
  };
  for (const ProfileSpec& spec : w.profiles) {
    const mute::sim::DeviceSimConfig& cfg = spec.config;
    mute::audio::WhiteNoiseSource noise(0.1, spec.noise_seed);
    out.prepare_s += timed("sim.prepare_streams", [&] {
      (void)mute::sim::prepare_device_streams(noise, cfg);
    });
    const double fs = cfg.scene.sample_rate;
    const auto n = static_cast<std::size_t>(cfg.duration_s * fs);
    mute::Signal n_sig;
    out.generate_s += timed("audio.generate", [&] {
      noise.reset();
      n_sig = noise.generate(n);
    });
    std::vector<mute::acoustics::Point> relays = cfg.relay_positions;
    if (relays.empty()) relays.push_back(cfg.scene.relay_mic);
    std::vector<mute::Signal> x(relays.size());
    out.build_path_s += timed("acoustics.build_path", [&] {
      const auto& sc = cfg.scene;
      (void)mute::acoustics::build_path(sc, sc.noise_source, sc.error_mic,
                                        "h_ne")
          .apply(n_sig);
      (void)mute::acoustics::build_path(sc, sc.anti_speaker, sc.error_mic,
                                        "h_se");
      for (std::size_t k = 0; k < relays.size(); ++k) {
        x[k] = mute::acoustics::build_path(sc, sc.noise_source, relays[k],
                                           "h_nr_k")
                   .apply(n_sig);
      }
    });
    if (!cfg.use_rf_link) continue;
    out.relay_link_s += timed("rf.relay_link", [&] {
      for (std::size_t k = 0; k < x.size(); ++k) {
        mute::rf::RelayConfig rf_cfg = cfg.rf;
        rf_cfg.audio_rate = fs;
        if (k < cfg.relay_faults.size()) rf_cfg.faults = cfg.relay_faults[k];
        mute::rf::RelayLink link(rf_cfg, cfg.seed + 100 + k);
        (void)link.process(x[k]);
      }
    });
  }
  return out;
}

// ---------------------------------------------------------------- the run

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string out;
};

// How one run spends --seconds. It measures in `windows` rounds; each
// round serves closed-loop segments, then a paced window, so both
// measurements sample the whole run: on a shared host per-core speed drifts
// over seconds, and one long phase would see only one stretch of it.
// Closed segments total half of --seconds in simulated time, paced windows
// half of it in wall time. A closed segment is the whole number of blocks
// nearest one selection period, so it holds one selection round per tenant,
// give or take one (a round costs as much as ~10k ticks; a shorter segment
// would measure how many rounds it caught).
struct Plan {
  std::size_t lanes = 0;
  std::size_t tenants = 0;
  double fs = 0.0;
  double block_s = 0.0;
  std::size_t windows = 0;
  std::size_t segment_blocks = 0;
  std::size_t segments_per_window = 0;
  std::size_t window_blocks = 0;
  std::size_t churn_every = 0;     // blocks between churn steps; 0 = none
  std::size_t admit_spread = 0;    // warm-up admission blocks
  double tenant_lifetime_s = 0.0;  // for arena sizing
};

Plan make_plan(const RunConfig& rc, const Workload& w) {
  Plan plan;
  plan.lanes = std::min<std::size_t>(4, available_cores());
  plan.tenants = rc.smoke ? 4 : w.tenants;
  plan.fs = w.profiles.front().config.scene.sample_rate;
  plan.block_s = static_cast<double>(w.block_samples) / plan.fs;
  plan.windows = rc.smoke ? 2 : kWindows;
  const double period_s = w.profiles.front().config.device.selection_period_s;
  const double closed_s = rc.smoke ? 1.0 : 0.5 * rc.seconds;
  const double paced_s = rc.smoke ? 2.0 : 0.5 * rc.seconds;
  const auto windows = static_cast<double>(plan.windows);
  plan.segment_blocks = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(period_s / plan.block_s)));
  plan.segments_per_window = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(closed_s / period_s / windows)));
  plan.window_blocks = blocks_for(paced_s / windows, plan.fs, w.block_samples);
  // With churn a tenant lives one churn cycle (the first cohort also
  // through the warm-up); without, the whole run. A cycle lasts at least
  // one pass of the longest profile, so that a tenant's residual can be
  // judged (this stretches only the smoke run's few tenants).
  if (w.churn_every > 0) {
    double longest_s = 0.0;
    for (const ProfileSpec& p : w.profiles) {
      longest_s = std::max(longest_s, p.config.duration_s);
    }
    plan.churn_every = std::max(
        w.churn_every,
        blocks_for(longest_s / static_cast<double>(plan.tenants), plan.fs,
                   w.block_samples));
  }
  const std::size_t measured_blocks =
      plan.windows * (plan.segments_per_window * plan.segment_blocks +
                      plan.window_blocks);
  plan.admit_spread = admission_blocks(w, plan.tenants, plan.churn_every);
  const std::size_t lifetime_blocks =
      plan.churn_every > 0 ? plan.tenants * plan.churn_every : measured_blocks;
  plan.tenant_lifetime_s = warm_up_seconds(w, plan.admit_spread) +
                           static_cast<double>(lifetime_blocks) * plan.block_s;
  return plan;
}

// Everything the measured fleet run produced.
struct FleetRun {
  std::vector<FleetProfile> profiles;
  // Each measured figure comes with the host factor of the interval it was
  // measured in (HostSpeed::end_interval): one per set-up, closed segment
  // and paced window.
  std::vector<double> setup_s;
  std::vector<double> setup_factor;
  double host_reference_s = 0.0;  // HostSpeed::median_seconds()
  std::vector<double> control_block_s;  // busy time of admit/evict blocks

  std::vector<double> capacity_by_segment;  // devices
  std::vector<double> cpu_ns_per_sample;    // per segment
  std::vector<double> segment_factor;
  std::vector<double> closed_block_s[2];    // [traced] closed block times
  double closed_device_s = 0.0;
  long closed_minor_faults = 0;

  std::vector<double> latency_s;       // paced: due -> return
  std::vector<double> latency_factor;  // per block: its window's factor
  std::vector<double> wait_s;          // paced: due -> start
  std::vector<double> busy_s;          // paced: start -> return

  std::vector<mute::sim::TenantStats> stats;  // every tenant, at the end
  std::vector<double> growth_kb_s;  // arena growth per served second
  // Residual ÷ disturbance energy at the ear, [profile][tenant].
  std::vector<std::vector<double>> residual_ratio;
  std::uint64_t steady_allocations = 0;
  // (profile, device seed) of the first tenant admitted on each profile.
  std::vector<std::pair<std::size_t, std::uint64_t>> ledger_tenants;
};

FleetRun run_fleet(const Plan& plan, const Workload& w, mute::Rng& rng,
                   Tracer& tracer) {
  FleetRun out;
  const std::string trace = w.name + "/fleet";
  const double fs = plan.fs;

  // --- Setup, kSetupRepeats times: profile synthesis, fleet construction,
  //     admission and warm-up up to the first timed block. setup_s is the
  //     median; the last fleet is measured. The earlier set-ups draw from
  //     a copy of the generator, so the measured fleet's inputs do not
  //     depend on the repeat count.
  std::unique_ptr<FleetHarness> harness;
  HostSpeed host(plan.lanes);
  {
    SpanScope setup(tracer, "setup", trace);
    mute::Rng scratch = rng;
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
      const bool last = i + 1 == kSetupRepeats;
      harness.reset();  // free one fleet's arenas before the next
      scratch = rng;
      const auto t0 = Clock::now();
      {
        SpanScope span(tracer, "setup.synthesize", trace);
        out.profiles = synthesize(w);
      }
      {
        SpanScope span(tracer, "sim.fleet.construct", trace);
        harness = std::make_unique<FleetHarness>(
            out.profiles, plan.lanes, plan.tenants, w.block_samples,
            arena_bytes_for(w, plan.tenant_lifetime_s,
                            FleetHarness::slots(plan.tenants)),
            last ? rng : scratch, tracer, trace);
      }
      out.control_block_s =
          warm_up(*harness, plan.tenants, plan.admit_spread,
                  out.profiles.front(), tracer, trace);
      out.setup_s.push_back(seconds_between(t0, Clock::now()));
      out.setup_factor.push_back(host.end_interval());
    }
  }
  mute::sim::FleetRuntime& fleet = harness->runtime();

  // Tenant state at the first timed block (arena growth per served second).
  std::vector<mute::sim::TenantStats> marks;
  for (const std::uint64_t id : harness->live()) {
    marks.push_back(fleet.stats(id));
  }

  std::size_t measured_block = 0;
  const auto churn = [&] {
    if (plan.churn_every > 0 && measured_block > 0 &&
        measured_block % plan.churn_every == 0) {
      harness->drain_oldest();
      harness->admit();
    }
    ++measured_block;
  };

  const auto block_dur = std::chrono::duration<double>(plan.block_s);
  std::uint64_t closed_samples = 0;
  for (std::size_t k = 0; k < plan.windows; ++k) {
    // Closed loop. Capacity and CPU cost are medians over the segments. In
    // the traced run every other block records its span, and the record is
    // inside that block's timed interval. Capacity is inverse to block time
    // at a fixed tenant count, so the traced half's median block time over
    // the untraced half's, minus 1, is untraced capacity over traced
    // capacity minus 1: the tracing overhead.
    {
      SpanScope phase(tracer, "phase.closed", trace);
      for (std::size_t i = 0; i < plan.segments_per_window; ++i) {
        std::uint64_t samples = 0;
        const long faults0 = usage_now().ru_minflt;
        const double cpu0 = process_cpu_seconds();
        const auto c0 = Clock::now();
        for (std::size_t b = 0; b < plan.segment_blocks; ++b) {
          churn();
          const bool traced = tracer.enabled() && b % 2 == 1;
          const auto t0 = Clock::now();
          samples += harness->step().samples;
          const auto t1 = Clock::now();
          if (traced) {
            tracer.record("sim.fleet.run_blocks", trace, t0, t1,
                          "\"phase\":\"closed\"");
          }
          const auto t2 = Clock::now();
          out.closed_block_s[traced ? 1 : 0].push_back(seconds_between(t0, t2));
        }
        const double wall = seconds_between(c0, Clock::now());
        const double cpu = process_cpu_seconds() - cpu0;
        out.closed_minor_faults += usage_now().ru_minflt - faults0;
        out.capacity_by_segment.push_back(static_cast<double>(samples) / fs /
                                          wall);
        out.cpu_ns_per_sample.push_back(1e9 * cpu /
                                        static_cast<double>(samples));
        out.segment_factor.push_back(host.end_interval());
        closed_samples += samples;
      }
    }
    // Open loop: block b of the window is due once its last sample has
    // arrived, t0 + (b + 1) * block; latency runs from there to the return.
    SpanScope phase(tracer, "phase.paced", trace);
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < plan.window_blocks; ++b) {
      churn();
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                (static_cast<double>(b) + 1.0) * block_dur);
      // Sleep to just short of the due time, then spin: the sleep's wakeup
      // jitter would otherwise be charged as queue wait.
      std::this_thread::sleep_until(due - std::chrono::microseconds(300));
      while (Clock::now() < due) {
      }
      const auto start = Clock::now();
      const bool control = harness->step().control;
      const auto end = Clock::now();
      out.latency_s.push_back(seconds_between(due, end));
      out.wait_s.push_back(seconds_between(due, start));
      out.busy_s.push_back(seconds_between(start, end));
      if (control) out.control_block_s.push_back(out.busy_s.back());
      if (tracer.enabled()) {
        char args[96];
        std::snprintf(args, sizeof(args),
                      "\"phase\":\"paced\",\"block\":%zu,\"wait_ms\":%.4f",
                      out.latency_s.size() - 1, 1e3 * out.wait_s.back());
        tracer.record("sim.fleet.run_blocks", trace, start, end, args);
      }
    }
    out.latency_factor.resize(out.latency_s.size(), host.end_interval());
  }
  out.closed_device_s = static_cast<double>(closed_samples) / fs;
  out.host_reference_s = host.median_seconds();

  out.stats = harness->all_stats();
  for (const auto& mark : marks) {
    const auto s = fleet.stats(mark.id);
    if (s.samples <= mark.samples) continue;
    const double served = static_cast<double>(s.samples - mark.samples) / fs;
    out.growth_kb_s.push_back((static_cast<double>(s.arena_used) -
                               static_cast<double>(mark.arena_used)) /
                              1024.0 / served);
  }

  // Residual vs disturbance energy over the loop region, on the latest
  // pass (the capture is written at the stream cursor, so a wrap
  // overwrites it). Judged are the tenants that served a whole lifetime:
  // with churn, from admission to their turn to be drained; without, the
  // whole run (at least one full pass). A younger adaptive filter cancels
  // less, so mixing ages would let the churn schedule move the figure.
  // Kept per profile, so the seeded profile mix does not move it either.
  const std::uint64_t lifetime_samples = static_cast<std::uint64_t>(
      plan.tenants * plan.churn_every * w.block_samples);
  out.residual_ratio.resize(out.profiles.size());
  for (const auto& t : harness->admitted()) {
    const auto s = fleet.stats(t.id);
    const FleetProfile& p = out.profiles[t.profile];
    if (s.samples < std::max<std::uint64_t>(lifetime_samples, p.length())) {
      continue;
    }
    const mute::Signal& r = fleet.captured_residual(t.id);
    double res = 0.0;
    double dist = 0.0;
    for (std::size_t i = p.loop_start; i < p.length(); ++i) {
      res += static_cast<double>(r[i]) * static_cast<double>(r[i]);
      dist += static_cast<double>(p.streams.d[i]) *
              static_cast<double>(p.streams.d[i]);
    }
    out.residual_ratio[t.profile].push_back(res / dist);
  }
  out.steady_allocations = fleet.steady_allocations();

  for (std::size_t p = 0; p < out.profiles.size(); ++p) {
    for (const auto& t : harness->admitted()) {
      if (t.profile == p) {
        out.ledger_tenants.emplace_back(p, t.seed);
        break;
      }
    }
  }
  return out;
}

void push(std::vector<Metric>& v, const char* name, double value,
          const char* unit) {
  v.push_back({name, value, unit});
}

// The traced run's extras: setup layers, a one-lane fleet and the ledger.
void per_layer_metrics(Report& rep, const Plan& plan, const Workload& w,
                       const FleetRun& f, std::uint64_t seed, Tracer& tracer) {
  const double fs = plan.fs;
  const SetupLayers layers = time_setup_layers(w, tracer, w.name + "/fleet");

  // One lane carrying as many tenants as each lane carries in the run.
  double capacity_1lane = 0.0;
  {
    const std::string trace = w.name + "/one_lane";
    SpanScope phase(tracer, "phase.one_lane", trace);
    const std::size_t tenants =
        std::max<std::size_t>(1, plan.tenants / plan.lanes);
    // Whole selection periods, so rounds are amortized as in the ledger.
    const double sim_s =
        4.0 * f.profiles.front().streams.device.selection_period_s;
    const std::size_t spread = admission_blocks(w, tenants, 0);
    mute::Rng rng(seed + 1);
    FleetHarness one(f.profiles, 1, tenants, w.block_samples,
                     arena_bytes_for(w, warm_up_seconds(w, spread) + sim_s,
                                     FleetHarness::slots(tenants)),
                     rng, tracer, trace);
    (void)warm_up(one, tenants, spread, f.profiles.front(), tracer, trace);
    const std::size_t blocks = blocks_for(sim_s, fs, w.block_samples);
    std::uint64_t samples = 0;
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < blocks; ++b) samples += one.step().samples;
    capacity_1lane = static_cast<double>(samples) / fs /
                     seconds_between(t0, Clock::now());
  }

  // Ledger: the first tenant of each profile, over two profile lengths.
  e2e::LedgerResult sum;
  for (const auto& [p, device_seed] : f.ledger_tenants) {
    char trace[96];
    std::snprintf(trace, sizeof(trace), "%s/ledger-profile%zu",
                  w.name.c_str(), p);
    SpanScope span(tracer, "ledger", trace);
    sum += e2e::run_ledger(f.profiles[p], device_seed,
                           2 * f.profiles[p].length(), tracer, trace);
  }
  rep.gates.emplace_back("ledger_replay_exact", sum.replay_exact);

  const auto at_least_1 = [](std::size_t n) {
    return static_cast<double>(std::max<std::size_t>(1, n));
  };
  const double timed = at_least_1(sum.timed_ticks);
  const double tick_ns = 1e9 * sum.tick_s / timed;
  const double plant_ns = 1e9 * sum.plant_s / timed;
  std::uint64_t handoffs = 0;
  std::uint64_t holds = 0;
  std::uint64_t served = 0;
  std::size_t high_water = 0;
  for (const auto& s : f.stats) {
    handoffs += s.handoff_count;
    holds += s.hold_count;
    served += s.samples;
    high_water = std::max(high_water, s.arena_high_water);
  }
  const double served_min = static_cast<double>(served) / fs / 60.0;
  const double rounds = at_least_1(sum.round_s.size());

  auto& m = rep.metrics;
  push(m, "sim.prepare_streams_s", layers.prepare_s, "s");
  push(m, "rf.relay_link_s", layers.relay_link_s, "s");
  push(m, "acoustics.build_path_s", layers.build_path_s, "s");
  push(m, "audio.generate_s", layers.generate_s, "s");
  push(m, "sim.fleet.block_busy_ms_p50", 1e3 * median(f.busy_s), "ms");
  push(m, "sim.fleet.block_busy_ms_p99", 1e3 * quantile(f.busy_s, 0.99), "ms");
  push(m, "sim.fleet.queue_wait_ms_p99", 1e3 * quantile(f.wait_s, 0.99), "ms");
  push(m, "sim.fleet.churn_block_ms_p50", 1e3 * median(f.control_block_s),
       "ms");
  push(m, "sim.fleet.capacity_devices_1lane", capacity_1lane, "devices");
  push(m, "sim.fleet.scaling_efficiency",
       median(f.capacity_by_segment) /
           (static_cast<double>(plan.lanes) * capacity_1lane),
       "ratio");
  push(m, "sim.fleet.bookkeeping_ns",
       1e9 / (capacity_1lane * fs) - tick_ns - plant_ns, "ns");
  push(m, "core.mute_device.tick_ns", tick_ns, "ns");
  push(m, "core.mute_device.running_share",
       static_cast<double>(sum.running_state_ticks) / at_least_1(sum.ticks),
       "ratio");
  push(m, "core.relay_select.push_ns", 1e9 * sum.push_s / timed, "ns");
  push(m, "core.relay_select.round_ms_p50", 1e3 * median(sum.round_s), "ms");
  push(m, "core.relay_select.round_ms_max", 1e3 * quantile(sum.round_s, 1.0),
       "ms");
  push(m, "core.relay_select.confident_round_ratio",
       static_cast<double>(sum.confident_rounds) / rounds, "ratio");
  push(m, "core.lanc.tick_ns", 1e9 * sum.lanc_s / timed, "ns");
  push(m, "core.lanc.total_taps", static_cast<double>(sum.lanc_total_taps),
       "count");
  push(m, "core.link_monitor.process_ns",
       1e9 * sum.link_monitor_s / (timed * static_cast<double>(sum.relays)),
       "ns");
  push(m, "core.shadow_filter.observe_ns", 1e9 * sum.shadow_s / timed, "ns");
  push(m, "core.mute_device.handoffs_per_tenant_min",
       static_cast<double>(handoffs) / served_min, "1/min");
  push(m, "core.mute_device.holds_per_tenant_min",
       static_cast<double>(holds) / served_min, "1/min");
  push(m, "core.mute_device.shadow_handoff_ratio",
       sum.handoffs > 0 ? static_cast<double>(sum.shadow_handoffs) /
                              static_cast<double>(sum.handoffs)
                        : 0.0,
       "ratio");
  push(m, "adaptive.sysid.identify_ms",
       1e3 * sum.sysid_s / at_least_1(f.ledger_tenants.size()),
       "ms");
  push(m, "dsp.fir_filter.plant_ns", plant_ns, "ns");
  push(m, "dsp.fir_filter.plant_taps", static_cast<double>(sum.plant_taps),
       "count");
  push(m, "common.arena.high_water_mb",
       static_cast<double>(high_water) / 1048576.0, "MB");
  push(m, "common.arena.growth_kb_per_served_s", median(f.growth_kb_s), "KB/s");
  push(m, "common.heap.steady_allocations",
       static_cast<double>(f.steady_allocations), "count");
  push(m, "process.minor_faults_per_device_s",
       static_cast<double>(f.closed_minor_faults) / f.closed_device_s, "1/s");
  push(m, "ledger.unattributed_ratio", 1.0 - sum.attributed_s / sum.tick_s,
       "ratio");
  push(m, "trace.overhead_ratio",
       median(f.closed_block_s[1]) / median(f.closed_block_s[0]) - 1.0,
       "ratio");
}

Report run(const RunConfig& rc, const Workload& w, mute::Rng& rng,
           Tracer& tracer) {
  const Plan plan = make_plan(rc, w);
  const FleetRun f = run_fleet(plan, w, rng, tracer);

  Report rep;
  double worst_excess_db = -1e300;
  for (const auto& s : f.stats) {
    if (s.windows == 0) continue;  // drained before any audible window
    ++rep.attempted;
    worst_excess_db = std::max(worst_excess_db, s.worst_excess_db);
    if (s.worst_excess_db > kLouderMarginDb) ++rep.failed;
  }
  // Mean over profiles of each profile's mean tenant. A mean, because a
  // tenant's residual on the mesh is bimodal in its device seed, and the
  // median of a bimodal sample jumps between the modes.
  double residual_ratio = 0.0;
  std::size_t judged_profiles = 0;
  for (const auto& r : f.residual_ratio) {
    if (r.empty()) continue;
    double sum = 0.0;
    for (const double x : r) sum += x;
    residual_ratio += sum / static_cast<double>(r.size());
    ++judged_profiles;
  }
  residual_ratio /=
      static_cast<double>(std::max<std::size_t>(1, judged_profiles));
  const auto misses = static_cast<double>(
      std::count_if(f.latency_s.begin(), f.latency_s.end(),
                    [&](double l) { return l > plan.block_s; }));
  const double miss_ratio = misses / static_cast<double>(f.latency_s.size());

  rep.gates.emplace_back("steady_allocations_zero",
                         mute::RtAllocationGuard::interposition_enabled() &&
                             f.steady_allocations == 0);
  rep.gates.emplace_back("never_louder", rep.attempted > 0 && rep.failed == 0);
  rep.gates.emplace_back("cancellation_measured", judged_profiles > 0);
  rep.gates.emplace_back("single_tenant_bit_identical",
                         single_tenant_identical(w));

  push(rep.info, "failed_tenant_ratio",
       static_cast<double>(rep.failed) /
           static_cast<double>(std::max<std::uint64_t>(1, rep.attempted)),
       "ratio");
  push(rep.info, "worst_excess_db", worst_excess_db, "dB");
  push(rep.info, "cancellation_db", 10.0 * std::log10(residual_ratio), "dB");
  // The tail and the miss ratio follow the shared host's stalls more than
  // the program (README, "Bounds"), so they are reported, not bounded.
  push(rep.info, "block_latency_p95_ms", 1e3 * quantile(f.latency_s, 0.95),
       "ms");
  push(rep.info, "block_latency_p99_ms", 1e3 * quantile(f.latency_s, 0.99),
       "ms");
  push(rep.info, "deadline_miss_ratio", miss_ratio, "ratio");
  push(rep.info, "paced_blocks", static_cast<double>(f.latency_s.size()),
       "count");
  push(rep.info, "tenants_judged", static_cast<double>(rep.attempted), "count");
  push(rep.info, "lanes", static_cast<double>(plan.lanes), "count");
  // The unscaled timing figures, and the host speed that scales them.
  push(rep.info, "host_reference_ms", 1e3 * f.host_reference_s, "ms");
  push(rep.info, "host_factor",
       f.host_reference_s / HostSpeed::kNominalSeconds, "ratio");
  push(rep.info, "measured_setup_s", median(f.setup_s), "s");
  push(rep.info, "measured_capacity_devices", median(f.capacity_by_segment),
       "devices");
  push(rep.info, "measured_cpu_ns_per_device_sample",
       median(f.cpu_ns_per_sample), "ns");
  push(rep.info, "measured_block_latency_p50_ms", 1e3 * median(f.latency_s),
       "ms");

  if (tracer.enabled()) {
    per_layer_metrics(rep, plan, w, f, rc.seed, tracer);
    return rep;
  }
  // Each interval's figure at the nominal host speed: a time divided by
  // the interval's host factor, a rate multiplied by it.
  const auto nominal = [](std::vector<double> v,
                          const std::vector<double>& factor, bool rate) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = rate ? v[i] * factor[i] : v[i] / factor[i];
    }
    return v;
  };
  auto& m = rep.metrics;
  push(m, "setup_s", median(nominal(f.setup_s, f.setup_factor, false)), "s");
  push(m, "capacity_devices",
       median(nominal(f.capacity_by_segment, f.segment_factor, true)),
       "devices");
  push(m, "cpu_ns_per_device_sample",
       median(nominal(f.cpu_ns_per_sample, f.segment_factor, false)), "ns");
  push(m, "block_latency_p50_ms",
       1e3 * median(nominal(f.latency_s, f.latency_factor, false)), "ms");
  push(m, "residual_energy_ratio", residual_ratio, "ratio");
  push(m, "peak_rss_mb", static_cast<double>(usage_now().ru_maxrss) / 1024.0,
       "MB");
  return rep;
}

// ------------------------------------------------------------------ output

// result.json -> result.trace.json; run.py's check_trace reads the same path.
std::string trace_path_for(const std::string& out) {
  const std::string ext = ".json";
  const bool json = out.size() >= ext.size() &&
                    out.compare(out.size() - ext.size(), ext.size(), ext) == 0;
  return (json ? out.substr(0, out.size() - ext.size()) : out) + ".trace.json";
}

void write_json(const RunConfig& rc, const Report& rep) {
  if (rc.out.empty()) return;
  std::FILE* f = std::fopen(rc.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", rc.out.c_str());
    std::exit(2);
  }
  const auto metrics = [&](const char* key, const std::vector<Metric>& v) {
    std::fprintf(f, "  \"%s\": {", key);
    for (std::size_t i = 0; i < v.size(); ++i) {
      // JSON has no infinity or NaN; such a value (a failed run's empty
      // sample) is written as null.
      char value[32] = "null";
      if (std::isfinite(v[i].value)) {
        std::snprintf(value, sizeof(value), "%.17g", v[i].value);
      }
      std::fprintf(f, "%s\n    \"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                   i == 0 ? "" : ",", v[i].name.c_str(), value,
                   v[i].unit.c_str());
    }
    std::fprintf(f, "\n  }");
  };
  std::fprintf(f,
               "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"seconds\": "
               "%.17g,\n  \"trace\": %d,\n  \"smoke\": %s,\n  \"correct\": "
               "%s,\n  \"attempted\": %llu,\n  \"failed\": %llu,\n  "
               "\"gates\": {",
               rc.workload.c_str(), static_cast<unsigned long long>(rc.seed),
               rc.seconds, rc.trace ? 1 : 0, rc.smoke ? "true" : "false",
               rep.correct() ? "true" : "false",
               static_cast<unsigned long long>(rep.attempted),
               static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < rep.gates.size(); ++i) {
    std::fprintf(f, "%s\"%s\": %s", i == 0 ? "" : ", ",
                 rep.gates[i].first.c_str(),
                 rep.gates[i].second ? "true" : "false");
  }
  std::fprintf(f, "},\n");
  metrics("metrics", rep.metrics);
  std::fprintf(f, ",\n");
  metrics("info", rep.info);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
}

// ------------------------------------------------------------------ repros

// Known bug: GCC-PHAT round buffers land in the monotonic tenant arena and
// are never reclaimed, so a tenant at FleetConfig's default 4 MiB arena
// aborts after a few seconds of serving.
int repro_arena_leak() {
  mute::Rng rng(1);
  Workload w = *make_workload("steady_1relay", rng);
  const std::vector<FleetProfile> profiles = synthesize(w);
  mute::sim::FleetConfig fc;  // default arena_bytes
  fc.max_tenants = 4;
  mute::sim::FleetRuntime fleet(fc);
  const std::size_t pid = fleet.add_profile(profiles.front());
  std::vector<std::uint64_t> ids;
  for (std::uint64_t s = 1; s <= 4; ++s) ids.push_back(fleet.admit(pid, s));
  const double fs = profiles.front().streams.sample_rate;
  const std::size_t per_s = blocks_for(1.0, fs, fleet.block_samples());
  std::printf("arena %zu MiB per tenant; serving starts at ~3 s\n",
              fc.arena_bytes >> 20);
  for (int s = 1; s <= 20; ++s) {
    fleet.run_blocks(per_s);
    std::size_t used = 0;
    for (const auto id : ids) used = std::max(used, fleet.stats(id).arena_used);
    std::printf("t=%2d s  max tenant arena used %.2f MiB\n", s,
                static_cast<double>(used) / 1048576.0);
    std::fflush(stdout);
  }
  std::printf("no abort: the arena leak did not reproduce\n");
  return 0;
}

// Known bug: bench/fleet_soak's intermittent-noise profile, pushed through
// the FM link, makes most tenants louder than passive.
int repro_intermittent_rf() {
  mute::sim::DeviceSimConfig cfg;
  cfg.duration_s = 2.0;
  cfg.seed = 7;
  cfg.use_rf_link = true;
  cfg.device.calibration_s = 0.25;
  cfg.device.selection_period_s = 0.5;
  cfg.device.secondary_taps = 96;
  cfg.device.lanc.fxlms.causal_taps = 128;
  mute::audio::IntermittentSource noise(
      std::make_unique<mute::audio::WhiteNoiseSource>(0.12, 909), 16000.0,
      0.4, 0.8, 0.1, 0.3, 606);
  mute::sim::FleetConfig fc;
  fc.max_tenants = 14;
  fc.arena_bytes = std::size_t{64} << 20;
  mute::sim::FleetRuntime fleet(fc);
  const std::size_t pid =
      fleet.add_profile(mute::sim::make_fleet_profile(noise, cfg, true));
  std::vector<std::uint64_t> ids;
  for (std::uint64_t s = 1; s <= 14; ++s) ids.push_back(fleet.admit(pid, s));
  fleet.run_blocks(blocks_for(4.0, 16000.0, fc.block_samples));
  std::size_t failed = 0;
  double worst = -1e300;
  for (const auto id : ids) {
    const auto s = fleet.stats(id);
    worst = std::max(worst, s.worst_excess_db);
    if (s.worst_excess_db > kLouderMarginDb) ++failed;
  }
  std::printf("%zu of %zu tenants louder than passive + %.0f dB (worst %+.1f "
              "dB)\n",
              failed, ids.size(), kLouderMarginDb, worst);
  return failed > 0 ? 1 : 0;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: mute_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke] [--out F.json]\n"
               "       mute_e2e --repro arena_leak|intermittent_rf\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig rc;
  std::string repro;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      rc.workload = next();
    } else if (arg == "--seed") {
      rc.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      rc.seconds = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--trace") {
      rc.trace = next() != "0";
    } else if (arg == "--smoke") {
      rc.smoke = true;
    } else if (arg == "--out") {
      rc.out = next();
    } else if (arg == "--repro") {
      repro = next();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (repro == "arena_leak") return repro_arena_leak();
  if (repro == "intermittent_rf") return repro_intermittent_rf();
  if (!repro.empty()) usage("unknown repro");
  if (!(rc.seconds >= 1.0 && rc.seconds <= 600.0)) {
    usage("--seconds must be in [1, 600]");
  }

  mute::Rng rng(rc.seed);
  const std::optional<Workload> w = make_workload(rc.workload, rng);
  if (!w.has_value()) usage(("unknown workload '" + rc.workload + "'").c_str());

  Tracer tracer(rc.trace);
  const Report rep = run(rc, *w, rng, tracer);

  for (const Metric& m : rep.metrics) {
    std::printf("%s %s %.6g %s\n", w->name.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : rep.info) {
    std::printf("%s info.%s %.6g %s\n", w->name.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  for (const auto& [name, ok] : rep.gates) {
    std::printf("%s gate.%s %s\n", w->name.c_str(), name.c_str(),
                ok ? "pass" : "FAIL");
  }
  write_json(rc, rep);
  if (tracer.enabled() && !rc.out.empty() &&
      !tracer.write_chrome_json(trace_path_for(rc.out))) {
    std::fprintf(stderr, "cannot write %s\n",
                 trace_path_for(rc.out).c_str());
    return 2;
  }
  return rep.correct() ? 0 : 1;
}
