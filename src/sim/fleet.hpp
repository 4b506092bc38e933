#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/arena.hpp"
#include "common/rt_annotations.hpp"
#include "common/types.hpp"
#include "sim/never_louder.hpp"
#include "sim/system.hpp"
#include "sim/worker_pool.hpp"

namespace mute::sim {

/// One immutable tenant input profile: the prepared device-simulation
/// streams (sim::prepare_device_streams — the same code path
/// run_device_simulation uses, which is what makes a single-tenant fleet
/// bit-identical to it) plus a loop point. Any number of tenants may share
/// one profile; the fleet groups tenants of a profile contiguously per
/// work item so their reads walk the same hot stream data.
struct FleetProfile {
  static constexpr std::size_t kNoLoop =
      std::numeric_limits<std::size_t>::max();

  DeviceStreams streams;
  /// Sample index the stream wraps to when a tenant's cursor reaches the
  /// end. kNoLoop = no wrap: the tenant auto-drains at end of stream
  /// (finite-session semantics, run_device_simulation-equivalent). For
  /// steady-state benches set this to `streams.quiet_samples` so the loud
  /// region repeats forever.
  std::size_t loop_start = kNoLoop;

  std::size_t length() const { return streams.d.size(); }
};

/// Build a profile through the shared prep path. `loop_steady_state`
/// points the loop at the start of the loud region (power-up lead-in and
/// calibration play once, then the disturbance repeats indefinitely).
FleetProfile make_fleet_profile(audio::SoundSource& noise,
                                const DeviceSimConfig& config,
                                bool loop_steady_state = false);

struct FleetConfig {
  /// Worker lanes (threads - 1 plus the caller). 0 = default_sweep_workers.
  std::size_t workers = 0;
  /// Tenant slots; one arena each, preallocated at construction.
  std::size_t max_tenants = 64;
  /// Per-tenant arena capacity. Exhaustion aborts loudly (MUTE_ASSERT);
  /// size from TenantStats::arena_high_water.
  std::size_t arena_bytes = std::size_t{4} << 20;
  /// Scheduling quantum: each live tenant advances this many samples per
  /// block, then the pool barrier hands tenants back to the control plane.
  std::size_t block_samples = 256;
  /// Tenants per work item. The pool already gives each lane a contiguous
  /// run of the profile-major schedule (its slice, WorkerPool), so a batch
  /// above 1 adds no locality; it only coarsens stealing and, with fewer
  /// items than lanes, leaves lanes idle.
  std::size_t batch_tenants = 1;
  /// Admission ramp-in / drain fade, seconds (0 = hard cut). Applied to
  /// the anti-noise injection at the ear, Muter/Drainer-style, so admits
  /// and evictions never click.
  double ramp_s = 0.005;
  /// Invariant grace period after admission: windows ending inside the
  /// first `invariant_grace_s` of a tenant's life are not scored. A
  /// cold-started NLMS transiently overshoots while it converges (a few
  /// dB for a fraction of a second right after calibration + first
  /// selection); the never-louder contract is about the served steady
  /// state and fault handling, not the power-up transient every adaptive
  /// canceller has.
  double invariant_grace_s = 1.5;
};

/// Tenant lifecycle: admit -> ramp-in -> running -> drain -> (evicted).
/// kDrained tenants are evicted (stats snapshotted, arena reset, slot
/// freed) at the next block boundary.
enum class TenantState : std::uint8_t {
  kEmpty,
  kRampIn,
  kRunning,
  kDraining,
  kDrained,
};

struct TenantStats {
  std::uint64_t id = 0;
  TenantState state = TenantState::kEmpty;
  std::size_t profile = 0;
  std::uint64_t samples = 0;  // audio samples processed

  // Never-louder invariant (HalfOverlapMeter: worst window over the
  // tenant's life, windows overlapping by half; disturbance-silent windows
  // and the invariant_grace_s are skipped). `worst_excess_t_s` is the END
  // of the worst window, in seconds since admission (-1: no window
  // scored). `windows` counts the scored windows of both phases.
  double worst_excess_db = -std::numeric_limits<double>::infinity();
  double worst_excess_t_s = -1.0;
  std::size_t windows = 0;

  // Device diagnostics at snapshot time.
  std::size_t handoff_count = 0;
  std::size_t hold_count = 0;
  std::size_t weight_rollbacks = 0;  // LANC divergence-guard firings

  // Arena accounting (capacity-sizing signal).
  std::size_t arena_used = 0;
  std::size_t arena_high_water = 0;
  std::size_t arena_allocations = 0;
};

/// Long-lived fleet runtime: shards up to `max_tenants` MuteDevice
/// instances across a fixed WorkerPool in `block_samples` quanta.
///
/// Memory: every allocation a tenant makes on a worker lane — device
/// construction, the amortized control events inside tick() (selection
/// rounds, handoffs), teardown — lands in that tenant's private
/// MonotonicArena via ScopedArenaAlloc; the steady state never touches
/// the global heap from worker threads (RtAllocationGuard-clean, counted
/// per block and surfaced by steady_allocations()). The GCC-PHAT round
/// scratch is not the tenant's: dead between rounds, it is one per lane,
/// grown on every lane by add_profile() outside any arena.
///
/// Scheduling: the live-tenant schedule is profile-major (tenants sharing
/// a profile are contiguous), cut into `batch_tenants` work items (one
/// tenant each by default), and dispatched through WorkerPool::run once
/// per block. The pool gives each lane a contiguous slice of the items and
/// lets idle lanes steal; the schedule is stable between membership
/// changes, so a tenant runs on the same lane block after block unless
/// stolen. The barrier at the block boundary has the happens-before edge
/// that lets a stolen tenant change lanes without fences in the audio
/// path.
///
/// Control plane (admit / drain / evict) runs on the caller's thread at
/// block boundaries only, so the whole fleet is deterministic in
/// (profiles, admission sequence, seeds) — bit-identical across worker
/// counts (DESIGN.md §10 contract, §14 architecture).
///
/// Threading contract: all public methods are control-plane — call them
/// from one thread (the one that calls run_blocks).
class FleetRuntime {
 public:
  explicit FleetRuntime(FleetConfig config = {});
  ~FleetRuntime();

  FleetRuntime(const FleetRuntime&) = delete;
  FleetRuntime& operator=(const FleetRuntime&) = delete;

  /// Register an input profile; returns its id. Profiles are immutable
  /// once registered (worker lanes read them concurrently). Grows every
  /// lane's selection-round scratch for the profile's devices.
  std::size_t add_profile(FleetProfile profile);
  const FleetProfile& profile(std::size_t id) const;
  std::size_t profile_count() const { return profiles_.size(); }

  /// Admit a tenant on `profile_id` with its own device seed; returns the
  /// tenant id. The slot is claimed immediately (throws when the fleet is
  /// at capacity); device construction runs inside the tenant's arena on
  /// the worker pool at the next block boundary. `capture_residual`
  /// records the at-ear residual (first pass of the stream) for
  /// equivalence checks — control-plane memory, not arena.
  std::uint64_t admit(std::size_t profile_id, std::uint64_t seed,
                      bool capture_residual = false);

  /// Begin draining a tenant: anti-noise fades out over ramp_s, then the
  /// tenant is evicted at the following block boundary.
  void drain(std::uint64_t tenant_id);

  /// Advance every live tenant by `blocks` scheduling quanta.
  void run_blocks(std::size_t blocks);

  std::size_t live_tenants() const { return live_.size(); }
  std::size_t capacity() const { return config_.max_tenants; }
  std::size_t block_samples() const { return config_.block_samples; }
  std::size_t worker_count() const { return pool_.worker_count(); }
  std::uint64_t blocks_processed() const { return blocks_processed_; }

  bool is_live(std::uint64_t tenant_id) const {
    return live_.count(tenant_id) != 0;
  }

  /// Stats for a live or evicted tenant (evicted: the eviction snapshot).
  TenantStats stats(std::uint64_t tenant_id) const;

  /// Residual captured for a tenant admitted with capture_residual (valid
  /// while live and after eviction).
  const Signal& captured_residual(std::uint64_t tenant_id) const;

  /// Eviction snapshots, in eviction order.
  const std::vector<TenantStats>& completed() const { return completed_; }

  /// Global-heap allocations observed inside tenant audio blocks on
  /// worker lanes since construction (RtAllocationGuard kCount deltas;
  /// always 0 when arena routing is enabled — admit/evict control-plane
  /// work is deliberately excluded). 0 when the interposition is compiled
  /// out (the guard is inert).
  std::uint64_t steady_allocations() const {
    return steady_allocs_.load(std::memory_order_relaxed);
  }

 private:
  struct Tenant {
    std::uint64_t id = 0;
    std::size_t profile = 0;
    TenantState state = TenantState::kEmpty;

    // Arena-backed (constructed on a worker lane inside the tenant's
    // ScopedArenaAlloc; destroyed before arena reset at eviction).
    std::unique_ptr<EarLoop> ear;

    std::size_t cursor = 0;

    double gain = 1.0;       // admission/drain fade on the anti injection
    double gain_step = 0.0;  // per-sample ramp increment

    HalfOverlapMeter meter;  // also counts the samples served

    bool capture = false;
    Signal captured;  // control-plane memory (preallocated at admit)
  };

  struct PendingAdmit {
    std::size_t slot = 0;
    std::uint64_t seed = 0;
  };

  /// Block boundary control plane: apply drains, evict kDrained tenants,
  /// construct pending admits (in parallel, inside their arenas), rebuild
  /// the profile-major schedule when membership changed.
  void apply_control();
  void evict(std::size_t slot);
  void rebuild_schedule();
  TenantStats snapshot(const Tenant& tenant, std::size_t slot) const;

  /// One tenant, one block: the fleet's RT audio root (rt-lint enforced).
  /// Runs on a worker lane with the tenant's arena scope installed.
  MUTE_RT_SAFE void process_tenant_block(Tenant& tenant);

  /// One work item: a contiguous run of `batch_tenants` schedule entries.
  void process_item(std::size_t item);

  FleetConfig config_;
  std::vector<FleetProfile> profiles_;
  ArenaPool arenas_;
  WorkerPool pool_;

  std::vector<Tenant> tenants_;  // fixed size: max_tenants slots
  std::vector<std::size_t> free_slots_;
  std::unordered_map<std::uint64_t, std::size_t> live_;  // id -> slot
  std::vector<PendingAdmit> pending_admits_;
  std::vector<std::size_t> order_;  // live slots, profile-major
  bool schedule_dirty_ = false;

  std::uint64_t next_id_ = 1;
  std::uint64_t blocks_processed_ = 0;
  std::atomic<std::uint64_t> steady_allocs_{0};

  std::vector<TenantStats> completed_;
  std::unordered_map<std::uint64_t, Signal> completed_residuals_;
};

}  // namespace mute::sim
