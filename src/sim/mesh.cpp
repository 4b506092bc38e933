#include "sim/mesh.hpp"

#include <algorithm>
#include <memory>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "dsp/fir_filter.hpp"

namespace mute::sim {

MeshSimResult run_mesh_simulation(audio::SoundSource& noise,
                                  const MeshSimConfig& config) {
  const DeviceSimConfig& dc = config.device_sim;
  ensure(config.control_block_s > 0, "control block must be positive");
  if (config.spectrum_supervision) {
    ensure(dc.use_rf_link, "spectrum supervision needs an RF link to retune");
    ensure(dc.device.link_supervision,
           "spectrum supervision needs link monitors for adverse evidence");
  }

  // --- 1. Acoustic streams, shared with run_device_simulation ----------
  // RF is left to the mesh: its links must outlive a control block so the
  // planner can retune them between blocks.
  DeviceSimConfig acoustic = dc;
  acoustic.use_rf_link = false;
  DeviceStreams streams = prepare_device_streams(noise, acoustic);
  const double fs = streams.sample_rate;
  const std::size_t n = streams.d.size();
  const std::size_t relay_count = streams.x.size();
  std::vector<Signal>& x = streams.x;
  Signal d_ac = std::move(streams.d);

  // --- 2. Persistent per-relay RF chains -------------------------------
  // Unlike run_device_simulation (which RF-processes the whole record up
  // front), the links live for the whole run and stream per control block:
  // every stage is streaming-stateful, so block boundaries are invisible,
  // and the planner can retune a link BETWEEN blocks.
  std::vector<std::unique_ptr<rf::RelayLink>> links;
  if (dc.use_rf_link) {
    links.reserve(relay_count);
    for (std::size_t k = 0; k < relay_count; ++k) {
      rf::RelayConfig rf_cfg = dc.rf;
      rf_cfg.audio_rate = fs;
      if (k < dc.relay_faults.size()) rf_cfg.faults = dc.relay_faults[k];
      links.push_back(
          std::make_unique<rf::RelayLink>(rf_cfg, dc.seed + 100 + k));
    }
  }

  // --- 3. Spectrum planner ---------------------------------------------
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
      links[k]->retune(planner->channel_of(k));
    }
  }

  // --- 4. Block-streamed loop ------------------------------------------
  core::MuteDevice device(streams.device);
  mute::dsp::FirFilter hse_stream(streams.hse_eff);
  MeshSimResult out;
  out.allocation_tracking = RtAllocationGuard::interposition_enabled();
  SystemResult& result = out.system;
  result.sample_rate = fs;
  result.disturbance = d_ac;
  result.residual.resize(n);
  result.anti_at_ear.resize(n);
  const auto block = std::max<std::size_t>(
      1, static_cast<std::size_t>(config.control_block_s * fs));
  Signal feed(relay_count, 0.0f);
  Sample error = 0.0f;  // device consumes the PREVIOUS tick's ear field

  for (std::size_t start = 0; start < n; start += block) {
    const std::size_t len = std::min(block, n - start);

    // RF-process this block in place through the persistent links.
    for (std::size_t k = 0; k < links.size(); ++k) {
      const Signal rx = links[k]->process(
          std::span<const Sample>(x[k].data() + start, len));
      std::copy_n(rx.begin(), len,
                  x[k].begin() + static_cast<std::ptrdiff_t>(start));
    }

    for (std::size_t t = 0; t < len; ++t) {
      for (std::size_t k = 0; k < relay_count; ++k) feed[k] = x[k][start + t];
      Sample y;
      {
        // Only control events (selection rounds, handoffs) may allocate;
        // the soak turns this tally into an invariant.
        RtAllocationGuard guard(RtAllocationGuard::Mode::kCount, "mesh-tick");
        y = device.tick(feed, error);
        if (guard.allocations_since_entry() > 0) ++out.allocating_ticks;
      }
      ++out.total_ticks;
      const Sample anti = hse_stream.process(y);
      const Sample at_ear = static_cast<Sample>(
          static_cast<double>(d_ac[start + t]) + static_cast<double>(anti));
      error = at_ear;
      result.residual[start + t] = at_ear;
      result.anti_at_ear[start + t] = anti;
    }

    // Consult the spectrum planner between blocks: link-monitor evidence
    // in, channel hops / TX steps out. Only once the device has gone live
    // (kRunning and beyond): during calibration and listening the noise
    // record's quiet lead-in makes every monitor report silence, and a
    // planner fed that evidence would hop relays off perfectly clean
    // channels before the first selection round.
    const bool live = device.state() >= core::MuteDevice::State::kRunning;
    if (planner.has_value() && live) {
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
            links[k]->retune(action.channel);
            ++out.hop_count;
            break;
          case rf::PlannerActionKind::kTxStep:
            links[k]->set_tx_gain_db(action.tx_gain_db);
            ++out.tx_step_count;
            break;
          case rf::PlannerActionKind::kNone:
            break;
        }
      }
    }
  }
  result.ambient_at_ear = std::move(d_ac);

  detail::read_device_diagnostics(device, streams.device.latency, result);
  out.final_channels.resize(relay_count, 0);
  out.final_tx_gain_db.resize(relay_count, 0.0);
  for (std::size_t k = 0; k < links.size(); ++k) {
    out.final_channels[k] = links[k]->channel();
    out.final_tx_gain_db[k] = links[k]->tx_gain_db();
  }
  return out;
}

}  // namespace mute::sim
