#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "acoustics/environment.hpp"
#include "audio/source.hpp"
#include "common/rt_annotations.hpp"
#include "core/lanc.hpp"
#include "core/link_monitor.hpp"
#include "core/mute_device.hpp"
#include "core/timing.hpp"
#include "dsp/fir_filter.hpp"
#include "rf/relay.hpp"
#include "sim/passive.hpp"

namespace mute::sim {

/// Which transducer quality the simulated device carries.
enum class HardwareGrade {
  kCheap,    // MUTE: $9 MEMS mic + $19 speaker (weak < 100 Hz, noisier)
  kPremium,  // Bose-class: flat response, very low self-noise
  kIdeal,    // algorithm-only studies: identity, noiseless
};

/// Disturbance RMS at the (open) ear before any device, in both the
/// offline and the device-level simulation (the device sim measures it
/// once the ambient starts, after the quiet calibration lead-in).
inline constexpr double kDisturbanceRms = 0.1;

/// Length of the tuning record the factory-style warm start fits on.
inline constexpr double kWarmStartTuningS = 4.0;

/// Weight of the out-of-band output-effort penalty in the warm-start
/// controller fit (higher = less high-frequency spill, shallower in-band
/// depth; the Bode-integral trade every feedforward ANC makes).
inline constexpr double kControlEffortWeight = 2.0;

/// Full configuration of one end-to-end ANC run. The defaults describe
/// MUTE_Hollow in the paper's office scene; the scenario builders in
/// scenarios.hpp derive the Bose baselines and MUTE+Passive from it.
struct SystemConfig {
  acoustics::Scene scene = acoustics::Scene::paper_office();
  double duration_s = 8.0;
  std::uint64_t seed = 1;

  // Reference acquisition.
  bool use_rf_link = true;            // false = wired reference, no FM chain
  rf::RelayConfig rf{};               // rf.faults scripts link faults
  double extra_reference_delay_s = 0.0;  // Figure 16 delayed-line injection

  // Link supervision & graceful degradation (opt-in; pairs with
  // rf.faults): a LinkMonitor with the default LinkMonitorOptions watches
  // the received reference and, while it is flagged, the LANC freezes
  // adaptation and fades the anti-noise out so the ear is never louder
  // than passive. Off by default so benign-channel experiments are
  // bit-identical with and without this subsystem.
  bool link_supervision = false;
  // FxLMS divergence guard (FxlmsOptions::weight_norm_limit); 0 = off.
  double weight_norm_limit = 0.0;

  // Processing-latency budget (Equation 3).
  core::LatencyBudget latency = core::LatencyBudget::mute_ear_device();

  // Adaptive filter. The office RIR rings for hundreds of taps, and the
  // optimal controller (h_ne * h_nr^-1 * h_se^-1) is longer still, so the
  // causal section must be generous.
  std::size_t causal_taps = 512;
  std::size_t max_noncausal_taps = 192;  // cap N even if lookahead is larger
  std::size_t secondary_taps = 256;      // length of the h_se estimate
  // Step size: cheap transducers put sharp phase rotation near their
  // resonance/rolloff edges (the truncated h_se estimate mismatches
  // there), and real-world workloads — speech, music, impacts — are
  // non-stationary enough to push NLMS to its delayed-update stability
  // edge. 0.05 is stable across every workload in the test suite; white
  // noise tolerates ~0.15 and converges a little faster.
  double mu = 0.05;
  // Step-size scheduling: when mu_settle > 0, the step decays
  // exponentially from `mu` toward `mu_settle` with a 2 s time constant.
  // NLMS misadjustment scales with mu and is painful on
  // amplitude-modulated sources (speech costs ~5 dB at mu = 0.05);
  // scheduling buys fast convergence AND a quiet steady state.
  double mu_settle = 0.01;
  bool profiling = false;
  // Profiler switch hysteresis in frames (~8 ms each): speech needs a
  // longer window than machine noise so syllable gaps don't flap the
  // classifier between "voice" and "background".
  std::size_t profile_hysteresis = 8;

  // Warm start: initialize the adaptive filter from a Wiener solution
  // computed on a short tuning record (reference + open-ear disturbance),
  // exactly like the factory tuning every commercial ANC headset ships
  // with; LMS keeps refining online. Cold start (false) shows raw
  // convergence behaviour instead.
  bool warm_start = false;

  // Control bandwidth (0 = full band). A conventional headphone cannot
  // realize the fractional-sample *advance* its geometry demands; an
  // unconstrained MSE-optimal causal filter would smear that error evenly
  // across the band (mediocre everywhere). Commercial ANC instead
  // restricts the control effort to low frequencies, where the missed
  // deadline costs almost no phase — which is exactly why the paper's
  // Bose_Active curve dies above ~1 kHz. The limit lives in the tuning
  // objective (band-limited adaptation error + out-of-band effort
  // penalty), not as a physical output filter, which would add group
  // delay the headphone cannot afford.
  double control_bandwidth_hz = 0.0;

  // Hardware.
  HardwareGrade grade = HardwareGrade::kCheap;
  // Model the ambient playback loudspeaker the evaluation noises physically
  // come out of (the paper's setup plays all noises through a consumer
  // speaker with a ~90 Hz corner).
  bool ambient_speaker = true;
  bool passive_shell = false;

  // Calibration of the secondary path before the run.
  double calibration_s = 2.0;

  // Architectural variants (Section 4.3): when the DSP lives in the relay
  // (tabletop / edge service), the error microphone's feedback returns
  // over RF and reaches the adaptive filter late. Delayed-update LMS stays
  // stable for moderate delays if mu is reduced (the variant builders do).
  std::size_t error_feedback_delay_samples = 0;

  // Head mobility (Section 6 limitation): the error microphone drifts
  // this many meters (+y) over the run, so the noise->ear channel is
  // time-varying and the adaptive filter must track it. The device-local
  // secondary path moves rigidly with the head and stays fixed.
  double head_drift_m = 0.0;

  // Optional second ambient source (the paper's Figure 17 setup plays
  // continuous background noise from one speaker and intermittent voice
  // from another). Each source gets its own room channels, so the optimal
  // controller genuinely changes when the mixture changes — the situation
  // predictive profile switching exists for.
  std::optional<acoustics::Point> second_source_position;
};

/// Everything a run produces. Signals are aligned sample-for-sample.
struct SystemResult {
  Signal disturbance;       // what the ear hears with no ANC (after shell)
  Signal residual;          // what the ear hears with ANC running
  Signal reference;         // the reference stream the DSP consumed
  // Raw acoustic components of the residual (before the measurement
  // microphone): residual ~= ambient_at_ear + anti_at_ear + mic noise.
  // Needed by experiments where the two components take different onward
  // paths (e.g. into the ear canal from different incidence angles).
  // Only run_anc_simulation fills them; device-level runs leave them empty.
  Signal ambient_at_ear;
  Signal anti_at_ear;
  double sample_rate = 0.0;

  // Timing diagnostics.
  double acoustic_lookahead_s = 0.0;  // Equation 4 geometry
  double link_delay_s = 0.0;          // measured RF-link group delay
  double usable_lookahead_s = 0.0;    // after budget subtraction
  std::size_t noncausal_taps = 0;     // N actually configured

  // Secondary-path calibration quality (residual dB; more negative=better).
  double calibration_error_db = 0.0;

  // Profiling diagnostics.
  std::size_t profile_switches = 0;
  std::size_t profiles_seen = 0;

  // Fault/recovery diagnostics (populated when link_supervision is on).
  std::size_t link_fault_samples = 0;   // reference samples flagged bad
  std::size_t link_fault_episodes = 0;  // distinct flagged intervals
  double first_fault_s = -1.0;          // onset of the first flag (-1: none)
  double last_recovery_s = -1.0;        // end of the last flag (-1: none)
  unsigned link_fault_flags = 0;        // LinkFlags bitmask union
  std::size_t weight_rollbacks = 0;     // divergence-guard firings

  // Failover diagnostics (populated by run_device_simulation; the
  // single-link run_anc_simulation has no device state machine).
  std::size_t handoff_count = 0;        // kHandoff re-targets
  std::size_t shadow_handoff_count = 0; // handoffs installed from the shadow
  std::size_t device_hold_count = 0;    // kHolding entries
  double reacquisition_gap_s = 0.0;     // last out-of-kRunning gap
  double max_reacquisition_gap_s = 0.0; // longest such gap over the run
  std::vector<double> relay_active_s;   // kRunning seconds per relay
};

/// Run a complete ANC simulation: synthesize room channels, calibrate the
/// secondary path, stream the noise through relay/link/LANC/speaker, and
/// record disturbance + residual at the error microphone.
/// `second_noise` plays from `config.second_source_position` when both are
/// provided (ignored otherwise).
SystemResult run_anc_simulation(audio::SoundSource& noise,
                                const SystemConfig& config,
                                audio::SoundSource* second_noise = nullptr);

/// Configuration of a multi-relay *device-level* simulation: unlike
/// run_anc_simulation (which streams one prepared reference into a bare
/// LancController), this drives the full MuteDevice state machine —
/// power-up calibration, GCC-PHAT association, link supervision, warm
/// standby failover — with one acoustic path and one (optional) RF chain
/// per relay. Built for failover experiments: fault the active relay and
/// observe the handoff.
struct DeviceSimConfig {
  acoustics::Scene scene = acoustics::Scene::paper_office();
  /// One reference-microphone position per relay; empty means the scene's
  /// single `relay_mic`. `device.relay_count` is overridden to match.
  std::vector<acoustics::Point> relay_positions;
  double duration_s = 10.0;
  std::uint64_t seed = 1;
  // The ambient is muted through the device's power-up calibration (plus
  // 0.1 s of margin), like the quiet-room calibration of the offline sim;
  // once it starts, the ear hears kDisturbanceRms.

  /// Push every relay's reference through its own FM chain. Required for
  /// the scripted fault scenarios (faults live in the RF layer).
  bool use_rf_link = true;
  rf::RelayConfig rf{};
  /// Per-relay scripted faults; index k applies to relay k (missing
  /// entries mean a benign link). See sim::make_fault_schedule. Runs
  /// reject a non-empty schedule that no RF link carries: one past the
  /// last relay, or any with `use_rf_link` off.
  std::vector<rf::FaultSchedule> relay_faults;

  /// Device configuration. `sample_rate` and `relay_count` are overridden
  /// from the scene and `relay_positions`.
  core::MuteDeviceConfig device{};
};

/// The shared-input half of the device-level simulation: everything
/// upstream of the MuteDevice itself. Holds the synthesized noise record
/// (with the quiet power-up lead-in), the normalized disturbance at the
/// ear, one reference stream per relay (gain-staged and pushed through its
/// RF chain), and the effective secondary-path IR with the latency budget
/// inside. `device` is the caller's MuteDeviceConfig with `sample_rate`
/// and `relay_count` resolved.
///
/// Factored out of run_device_simulation so the fleet runtime
/// (sim/fleet.hpp) and the mesh (sim/mesh.hpp, with the RF link off — it
/// streams its own links) build their inputs through the *same* code
/// path and step the same EarLoop over them — one implementation is what
/// makes a single-tenant fleet and a supervision-off mesh bit-identical
/// to run_device_simulation.
struct DeviceStreams {
  std::vector<Signal> x;        // per-relay reference, post RF chain
  Signal d;                     // disturbance at the ear (lead-in muted)
  std::vector<double> hse_eff;  // effective secondary-path IR
  std::size_t quiet_samples = 0;  // power-up lead-in (ambient muted)
  core::MuteDeviceConfig device;  // sample_rate / relay_count resolved
  double sample_rate = 0.0;
};

/// Synthesize the inputs of a device-level run: noise record with quiet
/// lead-in, acoustic paths, loud-region level normalization, per-relay RF
/// chains over the whole record (the relays in parallel, on
/// default_sweep_workers()), effective secondary path. Deterministic in
/// (noise, config), whatever the worker count.
DeviceStreams prepare_device_streams(audio::SoundSource& noise,
                                     const DeviceSimConfig& config);

/// The closed ear loop of one device (paper §1, Algorithm 1): the relay
/// feed goes into the MuteDevice, its anti-noise reaches the ear through
/// the effective secondary path, and the error mic returns the ear field
/// one tick later. The device and mesh sims and the fleet all step it.
class EarLoop {
 public:
  /// A device on `streams`, with `seed` as its device seed.
  EarLoop(const DeviceStreams& streams, std::uint64_t seed);

  /// One tick at stream index `t`; returns the ear field d[t] + gain *
  /// anti. `gain` is the fleet's admission/drain fade; 1.0 multiplies
  /// exactly, so every caller hears the same ear.
  MUTE_RT_SAFE Sample step(const DeviceStreams& streams, std::size_t t,
                           double gain) {
    for (std::size_t k = 0; k < feed_.size(); ++k) feed_[k] = streams.x[k][t];
    const Sample anti = plant_.process(device_.tick(feed_, error_));
    error_ = static_cast<Sample>(static_cast<double>(streams.d[t]) +
                                 gain * static_cast<double>(anti));
    return error_;
  }

  const core::MuteDevice& device() const { return device_; }

 private:
  core::MuteDevice device_;
  dsp::FirFilter plant_;  // hse_eff
  Signal feed_;
  Sample error_ = 0.0f;  // the device consumes the PREVIOUS tick's ear field
};

/// Run the device-level simulation: prepare_device_streams, then the
/// mesh's block loop (sim/mesh.cpp) with no links and no planner. In the
/// result, `disturbance` and `residual` are the ear field without/with the
/// device (the residual includes the calibration tone and every state
/// transition — it is the honest account of what the ear hears across the
/// device lifecycle); `reference` is left empty (each relay has its own
/// stream). Failover diagnostics (handoff_count, reacquisition_gap_s,
/// relay_active_s, device_hold_count) and the per-relay link-fault tallies
/// are populated.
SystemResult run_device_simulation(audio::SoundSource& noise,
                                   const DeviceSimConfig& config);

namespace detail {
/// The physically effective secondary path: the acoustic h_se cascaded
/// with the processing-latency budget realized as a fractional delay.
/// Shared by the offline, device, and mesh simulations so they model the
/// identical plant.
std::vector<double> effective_secondary_ir(const std::vector<double>& h_se,
                                           double budget_samples);

/// Throw PreconditionError on a `relay_faults` entry that can never fire.
void check_relay_faults(const DeviceSimConfig& config);

/// Relay k's RF chain (`config.rf` at audio rate `fs`, relay k's faults,
/// seed `config.seed + 100 + k`): the device-level runs' one link factory.
rf::RelayLink make_relay_link(const DeviceSimConfig& config, std::size_t k,
                              double fs);
}  // namespace detail

}  // namespace mute::sim
