#include "sim/mesh.hpp"

#include <algorithm>
#include <optional>
#include <span>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace mute::sim {

namespace {

// Copy a finished device's diagnostics into `result`: noncausal taps,
// calibration error, handoff/shadow-handoff/hold/weight-rollback counts,
// re-acquisition gaps, per-relay active time, link-monitor fault tallies
// and the usable lookahead left after `latency`.
void read_device_diagnostics(const core::MuteDevice& device,
                             const core::LatencyBudget& latency,
                             SystemResult& result) {
  const std::size_t relay_count = device.config().relay_count;
  result.noncausal_taps = device.noncausal_taps();
  result.calibration_error_db = device.calibration().final_error_db;
  result.handoff_count = device.handoff_count();
  result.shadow_handoff_count = device.shadow_handoff_count();
  result.device_hold_count = device.hold_count();
  result.weight_rollbacks = device.weight_rollback_count();
  result.reacquisition_gap_s = device.last_reacquisition_gap_s();
  result.max_reacquisition_gap_s = device.max_reacquisition_gap_s();
  result.relay_active_s.resize(relay_count);
  for (std::size_t k = 0; k < relay_count; ++k) {
    result.relay_active_s[k] = device.relay_active_s(k);
    if (const auto* monitor = device.link_monitor(k)) {
      result.link_fault_samples += monitor->unhealthy_samples();
      result.link_fault_episodes += monitor->fault_episodes();
      if (monitor->unhealthy_samples() > 0) {
        result.link_fault_flags |= monitor->flags();
      }
    }
  }
  if (device.measured_lookahead_s() > 0.0) {
    result.usable_lookahead_s =
        core::usable_lookahead_s(device.measured_lookahead_s(), latency);
  }
}

// The one device-level block loop: RF-process the block in place through
// the persistent `links` (none: the streams carry RF already), step the
// ear loop under a per-tick allocation count, then consult the `planner`.
MeshSimResult run_device_blocks(DeviceStreams& streams,
                                std::span<rf::RelayLink> links,
                                rf::SpectrumPlanner* planner,
                                std::size_t block) {
  const double fs = streams.sample_rate;
  const std::size_t n = streams.d.size();
  const std::size_t relay_count = streams.x.size();
  EarLoop ear(streams, streams.device.seed);
  MeshSimResult out;
  out.allocation_tracking = RtAllocationGuard::interposition_enabled();
  SystemResult& result = out.system;
  result.sample_rate = fs;
  result.residual.resize(n);

  for (std::size_t start = 0; start < n; start += block) {
    const std::size_t len = std::min(block, n - start);

    for (std::size_t k = 0; k < links.size(); ++k) {
      Signal& xk = streams.x[k];
      const Signal rx =
          links[k].process(std::span<const Sample>(xk.data() + start, len));
      std::copy_n(rx.begin(), len,
                  xk.begin() + static_cast<std::ptrdiff_t>(start));
    }

    for (std::size_t t = start; t < start + len; ++t) {
      // Only control events (selection rounds, handoffs) may allocate;
      // the soak turns this tally into an invariant.
      RtAllocationGuard guard(RtAllocationGuard::Mode::kCount, "mesh-tick");
      result.residual[t] = ear.step(streams, t, 1.0);
      if (guard.allocations_since_entry() > 0) ++out.allocating_ticks;
    }
    out.total_ticks += len;

    // Consult the spectrum planner between blocks: link-monitor evidence
    // in, channel hops / TX steps out. Only once the device has gone live
    // (kRunning and beyond): during calibration and listening the noise
    // record's quiet lead-in makes every monitor report silence, and a
    // planner fed that evidence would hop relays off perfectly clean
    // channels before the first selection round.
    const core::MuteDevice& device = ear.device();
    if (planner == nullptr ||
        device.state() < core::MuteDevice::State::kRunning) {
      continue;
    }
    const double now_s = static_cast<double>(start + len) / fs;
    for (std::size_t k = 0; k < relay_count; ++k) {
      const auto* monitor = device.link_monitor(k);
      if (monitor == nullptr) continue;
      if (monitor->healthy()) {
        planner->note_clean(k, now_s);
      } else {
        planner->note_adverse(k, now_s);
      }
      const auto action = planner->plan(k, now_s);
      switch (action.kind) {
        case rf::PlannerActionKind::kHop:
          links[k].retune(action.channel);
          ++out.hop_count;
          break;
        case rf::PlannerActionKind::kTxStep:
          links[k].set_tx_gain_db(action.tx_gain_db);
          ++out.tx_step_count;
          break;
        case rf::PlannerActionKind::kNone:
          break;
      }
    }
  }
  result.disturbance = std::move(streams.d);
  read_device_diagnostics(ear.device(), streams.device.latency, result);
  return out;
}

}  // namespace

SystemResult run_device_simulation(audio::SoundSource& noise,
                                   const DeviceSimConfig& config) {
  DeviceStreams streams = prepare_device_streams(noise, config);
  const std::size_t n = streams.d.size();
  return run_device_blocks(streams, {}, nullptr, n).system;
}

MeshSimResult run_mesh_simulation(audio::SoundSource& noise,
                                  const MeshSimConfig& config) {
  const DeviceSimConfig& dc = config.device_sim;
  ensure(config.control_block_s > 0, "control block must be positive");
  if (config.spectrum_supervision) {
    ensure(dc.use_rf_link, "spectrum supervision needs an RF link to retune");
    ensure(dc.device.link_supervision,
           "spectrum supervision needs link monitors for adverse evidence");
  }
  detail::check_relay_faults(dc);

  // Acoustic streams through the device sim's prep. RF (and with it the
  // faults) is left to the mesh: its links must outlive a control block
  // so the planner can retune them between blocks.
  DeviceSimConfig acoustic = dc;
  acoustic.use_rf_link = false;
  acoustic.relay_faults.clear();
  DeviceStreams streams = prepare_device_streams(noise, acoustic);
  const double fs = streams.sample_rate;
  const std::size_t relay_count = streams.x.size();

  // Persistent per-relay RF chains. Every stage is streaming-stateful, so
  // block boundaries that fall on whole RF round trips are invisible to
  // the audio path.
  std::vector<rf::RelayLink> links;
  if (dc.use_rf_link) {
    links.reserve(relay_count);
    for (std::size_t k = 0; k < relay_count; ++k) {
      links.push_back(detail::make_relay_link(dc, k, fs));
    }
  }

  std::optional<rf::SpectrumPlanner> planner;
  if (config.spectrum_supervision) {
    rf::SpectrumPlannerOptions popt;
    popt.channel_count = std::max(popt.channel_count, relay_count);
    planner.emplace(relay_count, popt);
    // Mirror the planner's frequency-division assignment into the links so
    // channel-pinned jammers couple against the channel the relay is
    // actually on. The channel index is a coupling label only (see
    // RelayLink::retune), so this does not perturb the benign signal path.
    for (std::size_t k = 0; k < links.size(); ++k) {
      links[k].retune(planner->channel_of(k));
    }
  }

  // Round the block down to a whole RF round trip (at least one): each
  // link call then returns exactly its block, so the per-block stream
  // equals the whole-record one. The quantum is 1 at 16 kHz.
  const std::size_t quantum =
      links.empty() ? 1 : rf::relay_block_quantum(fs);
  const auto raw = static_cast<std::size_t>(config.control_block_s * fs);
  const std::size_t block = std::max(quantum, raw / quantum * quantum);
  MeshSimResult out = run_device_blocks(
      streams, links, planner.has_value() ? &*planner : nullptr, block);
  out.final_channels.resize(relay_count, 0);
  out.final_tx_gain_db.resize(relay_count, 0.0);
  for (std::size_t k = 0; k < links.size(); ++k) {
    out.final_channels[k] = links[k].channel();
    out.final_tx_gain_db[k] = links[k].tx_gain_db();
  }
  return out;
}

}  // namespace mute::sim
