#include "sim/system.hpp"

#include <algorithm>
#include <cmath>

#include "acoustics/transducer.hpp"
#include "adaptive/sysid.hpp"
#include "adaptive/causal_wiener.hpp"
#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "dsp/fir_design.hpp"
#include "dsp/delay_line.hpp"
#include "dsp/fir_filter.hpp"
#include "dsp/signal_ops.hpp"

namespace mute::sim {

namespace {

using acoustics::Transducer;

Transducer make_mic(HardwareGrade grade, double fs, std::uint64_t seed) {
  switch (grade) {
    case HardwareGrade::kCheap:
      return Transducer::cheap_microphone(fs, seed);
    case HardwareGrade::kPremium:
      return Transducer::premium_microphone(fs, seed);
    case HardwareGrade::kIdeal:
      return Transducer::ideal(seed);
  }
  throw InvariantError("unknown hardware grade");
}

Transducer make_speaker(HardwareGrade grade, double fs, std::uint64_t seed) {
  switch (grade) {
    case HardwareGrade::kCheap:
      return Transducer::cheap_speaker(fs, seed);
    case HardwareGrade::kPremium:
      return Transducer::premium_speaker(fs, seed);
    case HardwareGrade::kIdeal:
      return Transducer::ideal(seed);
  }
  throw InvariantError("unknown hardware grade");
}

}  // namespace

namespace detail {

/// The physically effective secondary path: the acoustic h_se cascaded
/// with the processing-latency budget (ADC + DSP + DAC + speaker rise
/// time) realized as a fractional delay. Keeping the budget inside the
/// plant means a conventional headphone's missed deadline shows up exactly
/// as the paper describes: the anti-noise lags the wavefront.
std::vector<double> effective_secondary_ir(
    const std::vector<double>& h_se, double budget_samples) {
  if (budget_samples <= 1e-9) return h_se;
  const std::size_t frac_taps = 31;
  const auto frac =
      mute::dsp::design_fractional_delay(
          std::min(budget_samples, static_cast<double>(frac_taps - 1)),
          frac_taps);
  // If the budget exceeds the interpolator span, add integer shift.
  std::vector<double> ir = h_se;
  const double over = budget_samples - static_cast<double>(frac_taps - 1);
  if (over > 0) {
    ir = acoustics::shift_ir(ir, static_cast<std::size_t>(std::ceil(over)));
  }
  return acoustics::cascade_ir(ir, frac, ir.size() + frac.size());
}

void read_device_diagnostics(const core::MuteDevice& device,
                             const core::LatencyBudget& latency,
                             SystemResult& result) {
  const std::size_t relay_count = device.config().relay_count;
  result.noncausal_taps = device.noncausal_taps();
  result.calibration_error_db = device.calibration().final_error_db;
  result.handoff_count = device.handoff_count();
  result.shadow_handoff_count = device.shadow_handoff_count();
  result.device_hold_count = device.hold_count();
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

}  // namespace detail

using detail::effective_secondary_ir;

SystemResult run_anc_simulation(audio::SoundSource& noise,
                                const SystemConfig& config,
                                audio::SoundSource* second_noise) {
  const double fs = config.scene.sample_rate;
  ensure(fs > 0, "scene sample rate must be positive");
  const auto n = static_cast<std::size_t>(config.duration_s * fs);
  ensure(n > 4096, "run too short");

  // --- 1. Room channels ------------------------------------------------
  auto channels = acoustics::build_channels(config.scene);

  // --- 2. Noise record, normalized at the ear --------------------------
  // Every evaluation noise physically enters the room through the ambient
  // playback speaker (Section 5.1's Xtrememac), whose ~90 Hz corner is
  // part of the paper's measured reality.
  noise.reset();
  Signal n_sig = noise.generate(n);
  if (config.ambient_speaker) {
    Transducer ambient = Transducer::ambient_speaker(fs, config.seed + 5);
    n_sig = ambient.apply(n_sig);
  }
  Signal d_ac = channels.h_ne.apply(n_sig);
  Signal x_ac = channels.h_nr.apply(n_sig);

  // Optional second source with its own propagation paths.
  if (second_noise != nullptr && config.second_source_position.has_value()) {
    second_noise->reset();
    Signal n2 = second_noise->generate(n);
    if (config.ambient_speaker) {
      Transducer ambient2 = Transducer::ambient_speaker(fs, config.seed + 7);
      n2 = ambient2.apply(n2);
    }
    const auto h_ne2 =
        acoustics::build_path(config.scene, *config.second_source_position,
                              config.scene.error_mic, "h_ne2");
    const auto h_nr2 =
        acoustics::build_path(config.scene, *config.second_source_position,
                              config.scene.relay_mic, "h_nr2");
    const Signal d2 = h_ne2.apply(n2);
    const Signal x2 = h_nr2.apply(n2);
    for (std::size_t i = 0; i < n; ++i) {
      d_ac[i] = static_cast<Sample>(static_cast<double>(d_ac[i]) +
                                    static_cast<double>(d2[i]));
      x_ac[i] = static_cast<Sample>(static_cast<double>(x_ac[i]) +
                                    static_cast<double>(x2[i]));
    }
  }

  // Head mobility: crossfade the disturbance between the start and end
  // ear positions (a linearly time-varying noise->ear channel).
  if (config.head_drift_m > 0.0) {
    acoustics::Scene moved = config.scene;
    moved.error_mic.y += config.head_drift_m;
    ensure(moved.room.contains(moved.error_mic),
           "head drift leaves the room");
    const auto h_ne_end = acoustics::build_path(
        moved, moved.noise_source, moved.error_mic, "h_ne_end");
    const Signal d_end = h_ne_end.apply(n_sig);
    for (std::size_t i = 0; i < n; ++i) {
      const double a = static_cast<double>(i) / static_cast<double>(n);
      d_ac[i] = static_cast<Sample>((1.0 - a) * static_cast<double>(d_ac[i]) +
                                    a * static_cast<double>(d_end[i]));
    }
  }

  {
    const double current = mute::dsp::rms(d_ac);
    const double g = config.disturbance_rms / std::max(current, 1e-9);
    for (auto& v : d_ac) v = static_cast<Sample>(static_cast<double>(v) * g);
    for (auto& v : x_ac) v = static_cast<Sample>(static_cast<double>(v) * g);
  }

  // --- 3. Reference acquisition: mic -> (FM link) -> injected delay ----
  Transducer ref_mic = make_mic(config.grade, fs, config.seed + 11);
  Signal x_mic = ref_mic.apply(x_ac);

  // Relay input gain staging: the analog front end (and the FM deviation
  // budget) is designed for a nominal microphone level; a relay mounted
  // centimeters from a loud source would otherwise drive the soft-clipper
  // and over-deviate the VCO. Normalizing here models the input trimmer /
  // AGC every real transmitter has. The adaptive filter is scale-
  // invariant in x, so no downstream compensation is needed.
  mute::dsp::normalize_rms(x_mic, 0.1);

  double link_delay_samples = 0.0;
  Signal x_link;
  if (config.wireless_reference && config.use_rf_link) {
    rf::RelayConfig rf_cfg = config.rf;
    rf_cfg.audio_rate = fs;
    rf::RelayLink link(rf_cfg, config.seed + 23);
    link_delay_samples = link.measure_latency_samples();
    x_link = link.process(x_mic);
  } else {
    x_link = std::move(x_mic);
  }

  const auto extra =
      static_cast<std::size_t>(config.extra_reference_delay_s * fs);
  if (extra > 0) {
    Signal delayed = mute::dsp::delay_signal(x_link, extra);
    delayed.resize(n);
    x_link = std::move(delayed);
  }

  // --- 4. Timing budget (Equations 3/4) --------------------------------
  const double advance_samples = channels.direct_ne_samples -
                                 channels.direct_nr_samples -
                                 link_delay_samples -
                                 static_cast<double>(extra);
  const double budget_samples = config.latency.total_s() * fs;
  const std::size_t noncausal = std::min<std::size_t>(
      config.max_noncausal_taps,
      advance_samples > 0 ? static_cast<std::size_t>(advance_samples) : 0);

  // --- 5. Physical anti-noise plant ------------------------------------
  const auto hse_eff =
      effective_secondary_ir(channels.h_se.impulse_response(), budget_samples);
  Transducer speaker = make_speaker(config.grade, fs, config.seed + 31);
  Transducer err_mic = make_mic(config.grade, fs, config.seed + 41);
  mute::dsp::FirFilter hse_stream(hse_eff);

  // Control-bandwidth shaping (see the config comment). The band limit is
  // a property of the *tuning objective*, not a physical output filter: an
  // in-loop low-pass would add hundreds of microseconds of group delay --
  // the very budget the headphone cannot afford. Instead the adaptation
  // error (and the secondary-path estimate feeding the gradient and the
  // warm-start fit) is band-limited, so the controller spends its effort
  // below the cutoff and leakage keeps out-of-band weights near zero.
  auto make_control_lpf = [&]() {
    mute::dsp::BiquadCascade lpf;
    if (config.control_bandwidth_hz > 0) {
      lpf.push_section(mute::dsp::Biquad::lowpass(config.control_bandwidth_hz,
                                                  0.5412, fs));
      lpf.push_section(mute::dsp::Biquad::lowpass(config.control_bandwidth_hz,
                                                  1.3066, fs));
    }
    return lpf;
  };
  // Filtered-error LMS companion: when the control band is limited, the
  // out-of-band disturbance still reaches the error microphone and, fed
  // raw into the LMS, acts as gradient noise several times stronger than
  // the in-band signal — the weights random-walk and can even amplify.
  // Band-limiting the *adaptation* error (and, for gradient consistency,
  // calibrating the secondary-path estimate through the same filter)
  // makes the LMS minimize in-band error only. The recorded physical
  // residual stays unfiltered.
  mute::dsp::BiquadCascade error_lpf = make_control_lpf();

  // --- 6. Secondary-path calibration (quiet room, training noise) ------
  Transducer cal_speaker = make_speaker(config.grade, fs, config.seed + 31);
  Transducer cal_mic = make_mic(config.grade, fs, config.seed + 43);
  mute::dsp::FirFilter cal_hse(hse_eff);
  mute::dsp::BiquadCascade cal_err_lpf = make_control_lpf();
  // When the error returns over RF (tabletop/edge variants), the feedback
  // delay is part of the plant the DSP observes: calibrating through the
  // same delay keeps the filtered-x gradient aligned with the delayed
  // error — without this, the gradient phase error exceeds 90 degrees
  // well inside the audio band and the loop diverges at any step size.
  mute::dsp::DelayLine cal_feedback_delay(config.error_feedback_delay_samples);
  auto plant = [&](std::span<const Sample> stimulus) {
    Signal out(stimulus.size());
    for (std::size_t i = 0; i < stimulus.size(); ++i) {
      const Sample spk = cal_speaker.process(stimulus[i]);
      const Sample at_mic = cal_hse.process(spk);
      out[i] = cal_feedback_delay.process(
          cal_err_lpf.process(cal_mic.process(at_mic)));
    }
    return out;
  };
  const std::size_t sec_taps =
      std::min<std::size_t>(config.secondary_taps, hse_eff.size() + 64);
  auto cal = adaptive::calibrate_path(plant, fs, config.calibration_s,
                                      sec_taps, config.seed + 53);

  // --- 7. LANC controller ----------------------------------------------
  core::LancOptions lanc_opts;
  lanc_opts.fxlms.causal_taps = config.causal_taps;
  lanc_opts.fxlms.noncausal_taps = noncausal;
  lanc_opts.fxlms.mu = config.mu;
  lanc_opts.fxlms.leakage = config.leakage;
  lanc_opts.fxlms.weight_norm_limit = config.weight_norm_limit;
  if (config.link_supervision) {
    // Robust-adaptation companion to the monitor: during the detection
    // latency of a silence/capture fault the reference is nearly dead,
    // and NLMS's normalization would amplify those samples into weight
    // random-walk. Gate updates below ~3e-3 rms per-tap excitation.
    lanc_opts.fxlms.min_excitation = 1e-5;
  }
  lanc_opts.sample_rate = fs;
  lanc_opts.profiling = config.profiling;
  lanc_opts.switch_hysteresis = config.profile_hysteresis;
  core::LancController lanc(cal.impulse_response, lanc_opts);

  // Link supervision: the monitor sits between the received reference and
  // the controller. While it flags the link, the LANC holds (adaptation
  // frozen, output fading to zero) and the engine sees only sanitized
  // samples — demodulator garbage never reaches the adaptive weights.
  std::optional<core::LinkMonitor> link_monitor;
  if (config.link_supervision) {
    link_monitor.emplace(config.link_monitor, fs);
  }
  bool link_ok = true;

  // --- 8. Passive shell on the external-noise path ---------------------
  Signal d_at_ear = d_ac;
  if (config.passive_shell) {
    PassiveShell shell(fs);
    d_at_ear = shell.apply(d_ac);
  }

  // Optional factory-style warm start: record a tuning snippet of the
  // in-band disturbance and the plant-filtered reference (the same u the
  // LMS uses), then solve the exact causal least-squares controller and
  // seed the weights with it. This is the ridge-regularized causal Wiener
  // optimum — what a manufacturer's tuning process produces — and the LMS
  // keeps refining from there.
  if (config.warm_start) {
    const auto tune_len = std::min<std::size_t>(
        static_cast<std::size_t>(config.warm_start_tuning_s * fs), n);
    Transducer tune_mic = make_mic(config.grade, fs, config.seed + 63);
    mute::dsp::BiquadCascade tune_elpf = make_control_lpf();
    Signal d_tune(tune_len);
    for (std::size_t i = 0; i < tune_len; ++i) {
      d_tune[i] = tune_elpf.process(tune_mic.process(d_at_ear[i]));
    }
    mute::dsp::FirFilter u_filter(cal.impulse_response);
    Signal u_tune(tune_len);
    for (std::size_t i = 0; i < tune_len; ++i) {
      u_tune[i] = u_filter.process(x_link[i]);
    }
    // Out-of-band effort penalty: the band-limited objective cannot see
    // controller output above the cutoff, so penalize it explicitly or
    // the fit will park arbitrary gain there and inject noise at the ear.
    Signal effort;
    if (config.control_bandwidth_hz > 0) {
      // Penalty corner sits below the objective cutoff so the two curves
      // overlap: without that overlap the fit injects gain in the valley
      // between objective rolloff and penalty rise.
      const double corner = 0.8 * config.control_bandwidth_hz;
      mute::dsp::BiquadCascade hpf;
      hpf.push_section(mute::dsp::Biquad::highpass(corner, 0.5412, fs));
      hpf.push_section(mute::dsp::Biquad::highpass(corner, 1.3066, fs));
      effort.resize(tune_len);
      for (std::size_t i = 0; i < tune_len; ++i) {
        effort[i] = hpf.process(x_link[i]);
      }
    }
    auto w0 = adaptive::fit_causal_fir(u_tune, d_tune,
                                       noncausal + config.causal_taps,
                                       1e-4, effort,
                                       config.control_effort_weight);
    lanc.engine().set_weights(w0);
  }

  // --- 9. No-ANC disturbance measurement --------------------------------
  // The paper inserts a separate high-quality "measurement microphone" at
  // the ear-drum position of the head model (Section 5.1); disturbance and
  // residual are recorded with it, independent of the device's own
  // (possibly cheap) control microphones. The disturbance baseline is the
  // *open ear* (no device at all), so schemes with a passive shell report
  // shell + ANC combined — the paper's Bose_Overall/MUTE+Passive metric.
  SystemResult result;
  result.sample_rate = fs;
  Transducer meas_mic_resid =
      Transducer::premium_microphone(fs, config.seed + 67);
  {
    Transducer meas_mic = Transducer::premium_microphone(fs, config.seed + 61);
    result.disturbance = meas_mic.apply(d_ac);
  }

  // --- 10. Streaming ANC loop ------------------------------------------
  result.residual.resize(n);
  result.anti_at_ear.resize(n);
  Signal error_queue(config.error_feedback_delay_samples, 0.0f);
  std::size_t eq_pos = 0;
  const bool schedule_mu = config.mu_settle > 0 && config.mu_settle < config.mu;
  for (std::size_t t = 0; t < n; ++t) {
    if (schedule_mu && (t & 0x3F) == 0) {
      const double frac = std::exp(-static_cast<double>(t) /
                                   (config.mu_settle_tau_s * fs));
      lanc.engine().set_mu(config.mu_settle +
                           (config.mu - config.mu_settle) * frac);
    }
    Sample x_t = x_link[t];
    if (link_monitor) {
      x_t = link_monitor->process(x_t);
      const bool ok = link_monitor->healthy();
      if (!ok && link_ok) {
        lanc.hold();
        if (result.first_fault_s < 0) {
          result.first_fault_s = static_cast<double>(t) / fs;
        }
      } else if (ok && !link_ok) {
        lanc.resume();
        result.last_recovery_s = static_cast<double>(t) / fs;
      }
      link_ok = ok;
      if (!ok) result.link_fault_flags |= link_monitor->flags();
    }
    const Sample y = lanc.tick(x_t);
    const Sample spk = speaker.process(y);
    const Sample anti = hse_stream.process(spk);
    const Sample at_ear =
        static_cast<Sample>(static_cast<double>(d_at_ear[t]) +
                            static_cast<double>(anti));
    const Sample e = err_mic.process(at_ear);
    const Sample e_adapt = error_lpf.process(e);
    if (error_queue.empty()) {
      lanc.observe_error(e_adapt);
    } else {
      // Feedback returns over RF with a delay (tabletop/edge variants).
      const Sample delayed = error_queue[eq_pos];
      error_queue[eq_pos] = e_adapt;
      eq_pos = (eq_pos + 1) % error_queue.size();
      lanc.observe_error(delayed);
    }
    result.residual[t] = meas_mic_resid.process(at_ear);
    result.anti_at_ear[t] = anti;
  }
  result.ambient_at_ear = std::move(d_at_ear);

  result.reference = std::move(x_link);
  result.acoustic_lookahead_s = channels.lookahead_s;
  result.link_delay_s = link_delay_samples / fs;
  result.usable_lookahead_s =
      (advance_samples - budget_samples) / fs;
  result.noncausal_taps = noncausal;
  result.calibration_error_db = cal.final_error_db;
  result.profile_switches = lanc.profile_switch_count();
  result.profiles_seen = lanc.profile_count();
  if (link_monitor) {
    result.link_fault_samples = link_monitor->unhealthy_samples();
    result.link_fault_episodes = link_monitor->fault_episodes();
  }
  result.weight_rollbacks = lanc.engine().rollback_count();
  return result;
}

DeviceStreams prepare_device_streams(audio::SoundSource& noise,
                                     const DeviceSimConfig& config) {
  const double fs = config.scene.sample_rate;
  ensure(fs > 0, "scene sample rate must be positive");
  const auto n = static_cast<std::size_t>(config.duration_s * fs);
  ensure(n > 4096, "run too short");

  std::vector<acoustics::Point> relays = config.relay_positions;
  if (relays.empty()) relays.push_back(config.scene.relay_mic);
  const std::size_t relay_count = relays.size();

  // --- 1. Noise record with a quiet power-up lead-in -------------------
  // The device calibrates its secondary path right after power-up; mute
  // the ambient until then (plus margin), like the offline sim's
  // quiet-room calibration phase.
  noise.reset();
  Signal n_sig = noise.generate(n);
  const auto quiet = std::min<std::size_t>(
      n, static_cast<std::size_t>((config.device.calibration_s + 0.1) * fs));
  std::fill(n_sig.begin(),
            n_sig.begin() + static_cast<std::ptrdiff_t>(quiet), 0.0f);

  // --- 2. Acoustic paths: ear + one per relay --------------------------
  const auto h_ne =
      acoustics::build_path(config.scene, config.scene.noise_source,
                            config.scene.error_mic, "h_ne");
  const auto h_se =
      acoustics::build_path(config.scene, config.scene.anti_speaker,
                            config.scene.error_mic, "h_se");
  Signal d_ac = h_ne.apply(n_sig);
  std::vector<Signal> x(relay_count);
  for (std::size_t k = 0; k < relay_count; ++k) {
    const auto h_nr = acoustics::build_path(
        config.scene, config.scene.noise_source, relays[k], "h_nr_k");
    x[k] = h_nr.apply(n_sig);
  }

  // Normalize the ambient level at the ear over the LOUD region (the
  // quiet lead-in would bias a whole-record RMS).
  const auto loud_rms = [&](const Signal& s) {
    double acc = 0.0;
    for (std::size_t i = quiet; i < n; ++i) {
      acc += static_cast<double>(s[i]) * static_cast<double>(s[i]);
    }
    return n > quiet ? std::sqrt(acc / static_cast<double>(n - quiet)) : 0.0;
  };
  const auto scale_to = [&](Signal& s, double target_rms) {
    const double g = target_rms / std::max(loud_rms(s), 1e-9);
    for (auto& v : s) v = static_cast<Sample>(static_cast<double>(v) * g);
  };
  scale_to(d_ac, config.disturbance_rms);
  // Relay input gain staging, exactly as in the single-link sim: each
  // transmitter's trimmer/AGC drives the FM chain at its nominal 0.1 rms
  // (the level the LinkMonitor thresholds are tuned against — an
  // unstaged relay parked next to the source would be loud enough to
  // bury the carrier-loss noise signature). GCC-PHAT and NLMS are
  // scale-invariant in x, so no downstream compensation is needed.
  for (auto& xs : x) scale_to(xs, 0.1);

  // --- 3. Per-relay RF chains (each with its own fault script) ---------
  if (config.use_rf_link) {
    for (std::size_t k = 0; k < relay_count; ++k) {
      rf::RelayConfig rf_cfg = config.rf;
      rf_cfg.audio_rate = fs;
      if (k < config.relay_faults.size()) {
        rf_cfg.faults = config.relay_faults[k];
      }
      rf::RelayLink link(rf_cfg, config.seed + 100 + k);
      x[k] = link.process(x[k]);
    }
  }

  // --- 4. Anti-noise plant (latency budget inside, as in the offline
  //        sim) ---------------------------------------------------------
  DeviceStreams streams;
  streams.device = config.device;
  streams.device.sample_rate = fs;
  streams.device.relay_count = relay_count;
  streams.hse_eff = effective_secondary_ir(
      h_se.impulse_response(), streams.device.latency.total_s() * fs);
  streams.x = std::move(x);
  streams.d = std::move(d_ac);
  streams.quiet_samples = quiet;
  streams.sample_rate = fs;
  return streams;
}

SystemResult run_device_simulation(audio::SoundSource& noise,
                                   const DeviceSimConfig& config) {
  DeviceStreams streams = prepare_device_streams(noise, config);
  const double fs = streams.sample_rate;
  const std::size_t n = streams.d.size();
  const std::size_t relay_count = streams.x.size();
  const std::vector<Signal>& x = streams.x;
  Signal d_ac = std::move(streams.d);

  core::MuteDevice device(streams.device);
  mute::dsp::FirFilter hse_stream(streams.hse_eff);

  // --- 5. Streaming loop -----------------------------------------------
  SystemResult result;
  result.sample_rate = fs;
  result.disturbance = d_ac;
  result.residual.resize(n);
  result.anti_at_ear.resize(n);
  Signal feed(relay_count, 0.0f);
  Sample error = 0.0f;  // device consumes the PREVIOUS tick's ear field
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t k = 0; k < relay_count; ++k) feed[k] = x[k][t];
    const Sample y = device.tick(feed, error);
    const Sample anti = hse_stream.process(y);
    const Sample at_ear =
        static_cast<Sample>(static_cast<double>(d_ac[t]) +
                            static_cast<double>(anti));
    error = at_ear;
    result.residual[t] = at_ear;
    result.anti_at_ear[t] = anti;
  }
  result.ambient_at_ear = std::move(d_ac);

  detail::read_device_diagnostics(device, streams.device.latency, result);
  return result;
}

}  // namespace mute::sim
