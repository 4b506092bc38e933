#pragma once

#include <cstdint>
#include <vector>

#include "rf/spectrum_plan.hpp"
#include "sim/system.hpp"

namespace mute::sim {

/// Configuration of the N-relay *mesh* simulation: run_device_simulation's
/// physics plus runtime spectrum supervision. The RF chains persist for
/// the whole run and stream per control block (every stage is
/// streaming-stateful, so with supervision off the result is bit-identical
/// to the whole-record device sim — pinned by tests/sim/mesh_test.cpp),
/// which is what lets a SpectrumPlanner retune links MID-RUN in reaction
/// to link-monitor evidence: jammer-dodging channel hops and TX-power
/// escalation, per relay.
struct MeshSimConfig {
  /// The underlying device-level scenario (scene, relays, faults, device).
  DeviceSimConfig device_sim{};

  /// Monitor-driven spectrum supervision (off = plain device sim physics).
  /// Requires device_sim.device.link_supervision (the planner's evidence
  /// source) and device_sim.use_rf_link (something to retune).
  bool spectrum_supervision = true;
  rf::SpectrumPlannerOptions planner{};
  /// Planner consult cadence; also the RF streaming block (16 ms default —
  /// control-plane latency, far below any fault hold timeout).
  double control_block_s = 0.016;
};

/// Mesh-run outcome: the device-sim result plus spectrum diagnostics.
struct MeshSimResult {
  SystemResult system;

  // Spectrum supervision diagnostics.
  std::size_t hop_count = 0;
  std::size_t tx_step_count = 0;
  std::vector<std::size_t> final_channels;   // per relay
  std::vector<double> final_tx_gain_db;      // per relay

  // Allocation accounting: every device tick runs under an
  // RtAllocationGuard kCount, so allocating_ticks counts the ticks that
  // heap-allocated. It stays zero when the operator-new interposition is
  // compiled out, which allocation_tracking reports.
  std::uint64_t allocating_ticks = 0;
  std::uint64_t total_ticks = 0;
  bool allocation_tracking = false;  // interposition was actually active
};

/// Run the mesh simulation. Faults whose events pin a jammer to a channel
/// (FaultEvent::jammer_channel >= 0) interact with the planner: relay k
/// starts on channel k (the planner's frequency-division assignment,
/// mirrored into each link), and a hop off the jammed channel drops the
/// interference by the receiver's adjacent-channel rejection.
MeshSimResult run_mesh_simulation(audio::SoundSource& noise,
                                  const MeshSimConfig& config);

}  // namespace mute::sim
