#pragma once

// Per-layer cost ledger for one tenant. The tenant is driven outside the
// fleet with run_device_simulation's streaming loop (with the fleet's loop
// wrap), and every tick's inputs and outputs are recorded. Each layer is
// then replayed in isolation on the recorded inputs, timed in 256-tick
// chunks, and only chunks spent entirely in kRunning are counted, so every
// layer is measured over the same ticks as the whole device. Because the
// layers run on recorded inputs, no timer ever enters the device's path.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/fleet.hpp"
#include "trace.hpp"

namespace e2e {

struct LedgerResult {
  std::size_t relays = 0;
  std::size_t ticks = 0;
  std::size_t running_state_ticks = 0;  // ticks entered in kRunning
  std::size_t timed_ticks = 0;          // ticks in fully-running chunks

  // Seconds summed over the timed chunks.
  double tick_s = 0.0;          // MuteDevice::tick
  double link_monitor_s = 0.0;  // LinkMonitor::process, all relays
  double push_s = 0.0;          // RelaySelector::push (rounds included)
  double lanc_s = 0.0;          // observe_error + tick
  double shadow_s = 0.0;        // ShadowFilter::observe
  double plant_s = 0.0;         // FirFilter::process on the plant IR
  // The device layers that add up to tick_s: monitors, selection, LANC
  // and, with more than one relay, the shadow filter. With one relay the
  // device bypasses the shadow filter; its replay then measures what it
  // would cost on the primary's own feed, and is left out of this sum.
  double attributed_s = 0.0;

  std::vector<double> round_s;  // every selection round after calibration
  std::size_t confident_rounds = 0;
  double sysid_s = 0.0;

  std::size_t lanc_total_taps = 0;
  std::size_t plant_taps = 0;
  std::size_t handoffs = 0;
  std::size_t shadow_handoffs = 0;

  // The replayed device reproduced every recorded output sample, and the
  // replayed identification reproduced the device's calibration.
  bool replay_exact = true;

  /// Sum another tenant's ledger into this one (tap counts are kept from
  /// the first).
  LedgerResult& operator+=(const LedgerResult& r);
};

/// Record `ticks` ticks of one tenant on `profile` with `device_seed`,
/// then replay each layer. Spans go to `tracer` under trace id `trace`.
LedgerResult run_ledger(const mute::sim::FleetProfile& profile,
                        std::uint64_t device_seed, std::size_t ticks,
                        Tracer& tracer, const std::string& trace);

}  // namespace e2e
