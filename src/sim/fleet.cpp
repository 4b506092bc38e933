#include "sim/fleet.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "core/relay_select.hpp"

namespace mute::sim {

namespace {

FleetConfig validate(FleetConfig config) {
  ensure(config.max_tenants > 0, "fleet needs at least one tenant slot");
  ensure(config.block_samples > 0, "fleet block must be non-empty");
  ensure(config.batch_tenants > 0, "fleet batch must be non-empty");
  ensure(config.arena_bytes > 0, "fleet arenas must be non-empty");
  ensure(config.ramp_s >= 0.0, "fleet ramp must be non-negative");
  return config;
}

}  // namespace

namespace {

// Splice the loop seam: when the cursor wraps from the stream tail to
// `loop_start`, a raw jump is a step discontinuity in every reference
// and in the disturbance. White-noise tenants shrug it off, but a filter
// adapted to a COLORED reference has unconstrained gain where the
// spectrum carries no energy, and the broadband step excites exactly
// that region — measured +77 dB post-wrap blowups on pink-noise
// profiles. Standard audio loop splicing fixes it at the source: pick
// the loop point `seam` samples into the loud region and crossfade the
// stream tail into the `seam` samples that precede it, so the wrap
// lands mid-crossfade with sample-continuous references. Applied to
// x[k] and d with the same window, so they stay coherent.
void splice_loop_seam(DeviceStreams& streams, std::size_t loop_start,
                      std::size_t seam) {
  const std::size_t len = streams.d.size();
  const auto blend = [&](Signal& s) {
    for (std::size_t i = 0; i < seam; ++i) {
      const double a = 0.5 - 0.5 * std::cos(M_PI * static_cast<double>(i + 1) /
                                            static_cast<double>(seam + 1));
      const std::size_t tail = len - seam + i;
      s[tail] = static_cast<Sample>((1.0 - a) * static_cast<double>(s[tail]) +
                                    a * static_cast<double>(
                                            s[loop_start - seam + i]));
    }
  };
  for (Signal& xr : streams.x) blend(xr);
  blend(streams.d);
}

}  // namespace

FleetProfile make_fleet_profile(audio::SoundSource& noise,
                                const DeviceSimConfig& config,
                                bool loop_steady_state) {
  FleetProfile profile;
  profile.streams = prepare_device_streams(noise, config);
  if (loop_steady_state) {
    const std::size_t quiet = profile.streams.quiet_samples;
    ensure(quiet < profile.length(),
           "fleet profile has no loud region to loop");
    // ~16 ms seam; degrade gracefully for very short loud regions.
    const std::size_t loud = profile.length() - quiet;
    const std::size_t seam = std::min<std::size_t>(
        static_cast<std::size_t>(profile.streams.sample_rate * 0.016),
        loud / 4);
    profile.loop_start = quiet + seam;
    if (seam > 0) {
      splice_loop_seam(profile.streams, profile.loop_start, seam);
    }
  }
  return profile;
}

FleetRuntime::FleetRuntime(FleetConfig config)
    : config_(validate(config)),
      arenas_(config_.arena_bytes, config_.max_tenants),
      pool_(config_.workers),
      tenants_(config_.max_tenants) {
  free_slots_.reserve(config_.max_tenants);
  // Reverse order so pop_back hands out slot 0 first (stable, readable
  // slot assignment in tests and soak logs).
  for (std::size_t s = config_.max_tenants; s-- > 0;) free_slots_.push_back(s);
}

FleetRuntime::~FleetRuntime() = default;

std::size_t FleetRuntime::add_profile(FleetProfile profile) {
  ensure(profile.length() > 0, "fleet profile has no samples");
  ensure(profile.streams.sample_rate > 0, "fleet profile has no sample rate");
  ensure(profile.loop_start == FleetProfile::kNoLoop ||
             profile.loop_start < profile.length(),
         "fleet profile loop point out of range");
  // A tenant is built on one lane but runs its selection rounds on
  // whichever lane claims it, so every lane holds a round scratch big
  // enough for this profile's devices before any tenant is admitted.
  const core::MuteDeviceConfig& device = profile.streams.device;
  pool_.run_on_each_lane([&](std::size_t) {
    core::RelaySelector::reserve_round_scratch(device.sample_rate,
                                               device.selection_period_s);
  });
  profiles_.push_back(std::move(profile));
  return profiles_.size() - 1;
}

const FleetProfile& FleetRuntime::profile(std::size_t id) const {
  ensure(id < profiles_.size(), "unknown fleet profile");
  return profiles_[id];
}

std::uint64_t FleetRuntime::admit(std::size_t profile_id, std::uint64_t seed,
                                  bool capture_residual) {
  ensure(profile_id < profiles_.size(), "admit on unknown fleet profile");
  ensure(!free_slots_.empty(), "fleet at capacity");
  const std::size_t slot = free_slots_.back();
  free_slots_.pop_back();

  const FleetProfile& p = profiles_[profile_id];
  const double fs = p.streams.sample_rate;
  const std::uint64_t id = next_id_++;

  Tenant& t = tenants_[slot];
  t = Tenant{};
  t.id = id;
  t.profile = profile_id;
  const auto ramp = static_cast<std::size_t>(config_.ramp_s * fs);
  if (ramp > 0) {
    t.state = TenantState::kRampIn;
    t.gain = 0.0;
    t.gain_step = 1.0 / static_cast<double>(ramp);
  } else {
    t.state = TenantState::kRunning;
    t.gain = 1.0;
  }
  t.meter = HalfOverlapMeter(
      never_louder_window(fs),
      static_cast<std::size_t>(config_.invariant_grace_s * fs));
  t.capture = capture_residual;
  if (capture_residual) t.captured.assign(p.length(), 0.0f);

  live_.emplace(id, slot);
  pending_admits_.push_back({slot, seed});
  return id;
}

void FleetRuntime::drain(std::uint64_t tenant_id) {
  const auto it = live_.find(tenant_id);
  ensure(it != live_.end(), "drain of unknown fleet tenant");
  const std::size_t slot = it->second;
  Tenant& t = tenants_[slot];
  if (t.state == TenantState::kDraining || t.state == TenantState::kDrained) {
    return;
  }
  if (t.ear == nullptr) {
    // Admitted but never constructed (no block boundary in between):
    // cancel the pending admit and evict straight away.
    pending_admits_.erase(
        std::remove_if(pending_admits_.begin(), pending_admits_.end(),
                       [slot](const PendingAdmit& pa) {
                         return pa.slot == slot;
                       }),
        pending_admits_.end());
    t.state = TenantState::kDrained;
    evict(slot);
    schedule_dirty_ = true;
    return;
  }
  const double fs = profiles_[t.profile].streams.sample_rate;
  const auto ramp = static_cast<std::size_t>(config_.ramp_s * fs);
  if (ramp == 0 || t.gain <= 0.0) {
    t.gain = 0.0;
    t.state = TenantState::kDrained;
  } else {
    t.gain_step = 1.0 / static_cast<double>(ramp);
    t.state = TenantState::kDraining;
  }
}

void FleetRuntime::run_blocks(std::size_t blocks) {
  for (std::size_t b = 0; b < blocks; ++b) {
    apply_control();
    if (!order_.empty()) {
      const std::size_t items =
          (order_.size() + config_.batch_tenants - 1) / config_.batch_tenants;
      pool_.run(items, [this](std::size_t item) { process_item(item); });
    }
    ++blocks_processed_;
  }
}

void FleetRuntime::apply_control() {
  // 1. Evict tenants that finished draining in the previous block. Their
  //    arena-backed objects are destroyed here on the control thread (the
  //    deletes are registry no-ops), then the arena is reclaimed wholesale.
  for (std::size_t slot = 0; slot < tenants_.size(); ++slot) {
    if (tenants_[slot].state == TenantState::kDrained) {
      evict(slot);
      schedule_dirty_ = true;
    }
  }

  // 2. Construct pending admits — in parallel, each inside its tenant's
  //    arena, so mass admission scales across lanes and never contends on
  //    the global heap.
  if (!pending_admits_.empty()) {
    std::vector<PendingAdmit> batch;
    batch.swap(pending_admits_);
    const auto construct = [&](std::size_t i) {
      const PendingAdmit& pa = batch[i];
      Tenant& t = tenants_[pa.slot];
      ScopedArenaAlloc scope(arenas_.arena(pa.slot));
      t.ear = std::make_unique<EarLoop>(profiles_[t.profile].streams, pa.seed);
    };
    pool_.run(batch.size(), construct);
    schedule_dirty_ = true;
  }

  if (schedule_dirty_) {
    rebuild_schedule();
    schedule_dirty_ = false;
  }
}

void FleetRuntime::evict(std::size_t slot) {
  Tenant& t = tenants_[slot];
  completed_.push_back(snapshot(t, slot));
  if (t.capture) completed_residuals_[t.id] = std::move(t.captured);
  live_.erase(t.id);
  // Destroy arena-backed objects BEFORE the arena reclaims their bytes;
  // their operator delete is a no-op via the region registry (or a real
  // free when routing is compiled out — either way this order is correct).
  t.ear.reset();
  t = Tenant{};
  arenas_.arena(slot).reset();
  free_slots_.push_back(slot);
}

void FleetRuntime::rebuild_schedule() {
  order_.clear();
  order_.reserve(live_.size());
  for (const auto& [id, slot] : live_) order_.push_back(slot);
  // Profile-major, slot-minor: tenants sharing a profile sit contiguously
  // in the schedule, so one work item's devices walk the same stream data.
  std::sort(order_.begin(), order_.end(),
            [this](std::size_t a, std::size_t b) {
              const std::size_t pa = tenants_[a].profile;
              const std::size_t pb = tenants_[b].profile;
              return pa != pb ? pa < pb : a < b;
            });
}

void FleetRuntime::process_item(std::size_t item) {
  const std::size_t begin = item * config_.batch_tenants;
  const std::size_t end =
      std::min(order_.size(), begin + config_.batch_tenants);
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t slot = order_[i];
    Tenant& t = tenants_[slot];
    if (t.state == TenantState::kDrained) continue;  // drained mid-run
    // Every allocation the tenant makes during its block — selection
    // rounds, handoffs, any amortized control event inside tick() — lands
    // in its arena; the guard counts whatever still escapes to the global
    // heap and steady_allocations() reports it (expected: zero).
    ScopedArenaAlloc scope(arenas_.arena(slot));
    RtAllocationGuard guard(RtAllocationGuard::Mode::kCount, "fleet/block");
    process_tenant_block(t);
    steady_allocs_.fetch_add(guard.allocations_since_entry(),
                             std::memory_order_relaxed);
  }
}

void FleetRuntime::process_tenant_block(Tenant& t) {
  const FleetProfile& p = profiles_[t.profile];
  const std::size_t len = p.length();

  for (std::size_t s = 0; s < config_.block_samples; ++s) {
    if (t.cursor >= len) [[unlikely]] {
      if (p.loop_start == FleetProfile::kNoLoop) {
        // End of a finite session: the tenant auto-drains and is evicted
        // at the next block boundary.
        t.gain = 0.0;
        t.state = TenantState::kDrained;
        break;
      }
      t.cursor = p.loop_start;
    }

    const Sample at_ear = t.ear->step(p.streams, t.cursor, t.gain);
    if (t.capture) t.captured[t.cursor] = at_ear;
    t.meter.push(static_cast<double>(at_ear),
                 static_cast<double>(p.streams.d[t.cursor]));
    ++t.cursor;

    if (t.state == TenantState::kRampIn) {
      t.gain += t.gain_step;
      if (t.gain >= 1.0) {
        t.gain = 1.0;
        t.state = TenantState::kRunning;
      }
    } else if (t.state == TenantState::kDraining) {
      t.gain -= t.gain_step;
      if (t.gain <= 0.0) {
        t.gain = 0.0;
        t.state = TenantState::kDrained;
        break;
      }
    }
  }
}

TenantStats FleetRuntime::snapshot(const Tenant& t, std::size_t slot) const {
  TenantStats s;
  s.id = t.id;
  s.state = t.state;
  s.profile = t.profile;
  s.samples = t.meter.samples();
  s.windows = t.meter.windows();
  if (s.windows > 0) {
    s.worst_excess_db = t.meter.worst_db();
    s.worst_excess_t_s = static_cast<double>(t.meter.worst_end()) /
                         profiles_[t.profile].streams.sample_rate;
  }
  if (t.ear != nullptr) {
    s.handoff_count = t.ear->device().handoff_count();
    s.hold_count = t.ear->device().hold_count();
    s.weight_rollbacks = t.ear->device().weight_rollback_count();
  }
  const MonotonicArena& arena = arenas_.arena(slot);
  s.arena_used = arena.used();
  s.arena_high_water = arena.high_water();
  s.arena_allocations = arena.allocation_count();
  return s;
}

TenantStats FleetRuntime::stats(std::uint64_t tenant_id) const {
  const auto it = live_.find(tenant_id);
  if (it != live_.end()) return snapshot(tenants_[it->second], it->second);
  for (auto rit = completed_.rbegin(); rit != completed_.rend(); ++rit) {
    if (rit->id == tenant_id) return *rit;
  }
  throw PreconditionError("stats for unknown fleet tenant");
}

const Signal& FleetRuntime::captured_residual(std::uint64_t tenant_id) const {
  const auto it = live_.find(tenant_id);
  if (it != live_.end()) {
    const Tenant& t = tenants_[it->second];
    ensure(t.capture, "tenant was not admitted with capture_residual");
    return t.captured;
  }
  const auto cit = completed_residuals_.find(tenant_id);
  ensure(cit != completed_residuals_.end(),
         "no captured residual for fleet tenant");
  return cit->second;
}

}  // namespace mute::sim
