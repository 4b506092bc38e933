#include "sim/scenarios.hpp"

#include "audio/construction_synth.hpp"
#include "audio/generators.hpp"
#include "audio/music_synth.hpp"
#include "audio/speech_synth.hpp"
#include "common/error.hpp"

namespace mute::sim {

const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kMuteHollow: return "MUTE_Hollow";
    case Scheme::kBoseActive: return "Bose_Active";
    case Scheme::kBoseOverall: return "Bose_Overall";
    case Scheme::kMutePassive: return "MUTE+Passive";
  }
  return "?";
}

SystemConfig make_scheme_config(Scheme scheme,
                                const acoustics::Scene& scene,
                                std::uint64_t seed) {
  SystemConfig cfg;
  cfg.scene = scene;
  cfg.seed = seed;

  const bool is_bose =
      scheme == Scheme::kBoseActive || scheme == Scheme::kBoseOverall;
  if (is_bose) {
    // Reference microphone sits on the headphone shell, ~1.5 cm outward
    // from the error microphone toward the noise — the <1 cm..2 cm gap the
    // paper's Section 3.1 timeline analysis assumes.
    acoustics::Point toward = cfg.scene.noise_source - cfg.scene.error_mic;
    const double d = acoustics::distance(cfg.scene.noise_source,
                                         cfg.scene.error_mic);
    const double s = 0.015 / d;
    cfg.scene.relay_mic = {cfg.scene.error_mic.x + toward.x * s,
                           cfg.scene.error_mic.y + toward.y * s,
                           cfg.scene.error_mic.z + toward.z * s};
    cfg.use_rf_link = false;
    // A commercial ANC headset ships premium low-noise transducers but
    // pays the full converter/processing budget with only ~30 us of
    // acoustic lead (Figure 5a).
    cfg.grade = HardwareGrade::kPremium;
    // "ADC, DSP processing, DAC and speaker delay can easily be 3x" the
    // 30 us acoustic window (Section 3.1) — ~100 us total.
    cfg.latency = core::LatencyBudget{25.0, 20.0, 35.0, 20.0};
    cfg.max_noncausal_taps = 0;
    // A commercial headset ships factory-tuned filters and only mildly
    // adapts online; blind LMS from zero is not how a QC35 behaves.
    cfg.warm_start = true;
    cfg.mu = 0.01;
    // Feedforward control restricted to the band where the missed timing
    // deadline is affordable — the reason Bose only cancels below ~1 kHz.
    cfg.control_bandwidth_hz = 700.0;
  } else {
    cfg.use_rf_link = true;
    cfg.grade = HardwareGrade::kCheap;
    cfg.latency = core::LatencyBudget::mute_ear_device();
    // The paper evaluates converged, steady-state behaviour; warm start
    // (a tuning pass) plus a settled step size reproduces that without
    // burning half of every run on initial convergence. Cold-start
    // dynamics remain available (warm_start = false) and are exercised
    // by the convergence/profiling experiments.
    cfg.warm_start = true;
  }
  cfg.passive_shell =
      scheme == Scheme::kBoseOverall || scheme == Scheme::kMutePassive;
  return cfg;
}

const char* noise_name(NoiseKind kind) {
  switch (kind) {
    case NoiseKind::kWhite: return "white_noise";
    case NoiseKind::kMaleVoice: return "male_voice";
    case NoiseKind::kFemaleVoice: return "female_voice";
    case NoiseKind::kConstruction: return "construction";
    case NoiseKind::kMusic: return "music";
    case NoiseKind::kMachineHum: return "machine_hum";
  }
  return "?";
}

audio::SourcePtr make_noise(NoiseKind kind, double sample_rate,
                            std::uint64_t seed) {
  using namespace mute::audio;
  switch (kind) {
    case NoiseKind::kWhite:
      return std::make_unique<WhiteNoiseSource>(0.1, seed);
    case NoiseKind::kMaleVoice: {
      auto p = SpeechParams::male();
      p.continuous = true;  // Fig. 14 plays sustained voice recordings
      return std::make_unique<SpeechSource>(p, sample_rate, seed);
    }
    case NoiseKind::kFemaleVoice: {
      auto p = SpeechParams::female();
      p.continuous = true;
      return std::make_unique<SpeechSource>(p, sample_rate, seed);
    }
    case NoiseKind::kConstruction:
      return std::make_unique<ConstructionSource>(ConstructionParams{},
                                                  sample_rate, seed);
    case NoiseKind::kMusic:
      return std::make_unique<MusicSource>(MusicParams{}, sample_rate, seed);
    case NoiseKind::kMachineHum:
      return std::make_unique<MachineHumSource>(120.0, 0.2, sample_rate,
                                                seed);
  }
  throw PreconditionError("unknown noise kind");
}

const char* fault_scenario_name(FaultScenario scenario) {
  switch (scenario) {
    case FaultScenario::kNone: return "none";
    case FaultScenario::kRelayDropout: return "relay_dropout";
    case FaultScenario::kJammerBurst: return "jammer_burst";
    case FaultScenario::kDeepFade: return "deep_fade";
    case FaultScenario::kImpulseNoise: return "impulse_noise";
    case FaultScenario::kClockDrift: return "clock_drift";
  }
  return "?";
}

rf::FaultSchedule make_fault_schedule(FaultScenario scenario, double start_s,
                                      double duration_s, int jammer_channel) {
  rf::FaultSchedule faults;
  switch (scenario) {
    case FaultScenario::kNone:
      break;
    case FaultScenario::kRelayDropout:
      faults.relay_off(start_s, duration_s);
      break;
    case FaultScenario::kJammerBurst:
      // A co-channel emitter well above our post-backoff envelope, offset
      // into the channel-select passband.
      faults.jammer(start_s, duration_s, /*offset_hz=*/40e3,
                    /*power_db=*/6.0, jammer_channel);
      break;
    case FaultScenario::kDeepFade:
      // Deep enough to push the FM demodulator below its capture
      // threshold: a 35 dB fade still demodulates cleanly (measured), a
      // 48 dB fade collapses into discriminator noise the monitor flags.
      faults.deep_fade(start_s, duration_s, /*depth_db=*/48.0);
      break;
    case FaultScenario::kImpulseNoise:
      faults.impulse_noise(start_s, duration_s, /*rate_hz=*/400.0,
                           /*amplitude=*/12.0);
      break;
    case FaultScenario::kClockDrift:
      faults.clock_drift(start_s, duration_s, /*ppm=*/80.0);
      break;
  }
  return faults;
}

void apply_fault_scenario(SystemConfig& cfg, FaultScenario scenario,
                          double start_s, double duration_s) {
  if (scenario == FaultScenario::kNone) return;
  // Faults only exist on the wireless chain; force it on so a Bose-style
  // config passed here fails loudly in the link instead of silently
  // running fault-free.
  cfg.use_rf_link = true;
  cfg.link_supervision = true;
  if (cfg.weight_norm_limit <= 0.0) cfg.weight_norm_limit = 50.0;
  cfg.rf.faults = make_fault_schedule(scenario, start_s, duration_s);
}

}  // namespace mute::sim
