// Benchmarks for the Section 6 / 4.4 extension features:
//   1. multiple simultaneous noise sources: single- vs multi-reference,
//   2. head mobility: cancellation vs drift,
//   3. ear-canal mismatch: cancellation at the drum vs at the error mic,
//   4. FDAF vs transversal NLMS identification speed,
//   5. privacy scrambling: legitimate receiver vs eavesdropper.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "acoustics/ear_canal.hpp"
#include "adaptive/fdaf.hpp"
#include "adaptive/fxlms_multi.hpp"
#include "adaptive/lms.hpp"
#include "audio/generators.hpp"
#include "bench_util.hpp"
#include "common/math_utils.hpp"
#include "dsp/fir_filter.hpp"
#include "dsp/signal_ops.hpp"
#include "rf/relay.hpp"

namespace {

using namespace mute;

double power_db(std::span<const Sample> resid, std::span<const Sample> dist) {
  const std::size_t skip = resid.size() / 2;
  return amplitude_to_db(
      mute::dsp::rms(resid.subspan(skip)) /
      std::max(mute::dsp::rms(dist.subspan(skip)), 1e-12));
}

}  // namespace

int main() {
  std::printf("Extension ablations (paper Sections 6 / 4.4 future work).\n");

  // ---- 1. Multiple simultaneous sources --------------------------------
  {
    // Synthetic two-source world (different channels per source); compare
    // one reference that hears the mix vs one reference per source.
    Rng ra(1), rb(2);
    const int t_len = 80000;
    std::vector<float> na(t_len + 16), nb(t_len + 16);
    for (auto& v : na) v = static_cast<float>(ra.gaussian(0.1));
    for (auto& v : nb) v = static_cast<float>(rb.gaussian(0.1));
    std::vector<double> hse(4, 0.0);
    hse[1] = 1.0;

    adaptive::FxlmsOptions opts;
    opts.causal_taps = 48;
    opts.noncausal_taps = 8;
    opts.mu = 0.3;

    // Single reference: hears a MIX of both sources (with different gains
    // than the ear does — the fundamental single-reference limitation).
    adaptive::FxlmsEngine single(hse, opts);
    adaptive::MultiFxlmsEngine multi(hse, opts, 2);
    mute::dsp::FirFilter plant_s(hse), plant_m(hse);
    mute::dsp::FirFilter fda_s({0.0, 0.0, 0.8, 0.2}), fda_m({0.0, 0.0, 0.8, 0.2});
    mute::dsp::FirFilter fdb_s({0.0, 0.0, 0.0, -0.6, 0.3}),
        fdb_m({0.0, 0.0, 0.0, -0.6, 0.3});

    Signal resid_s(t_len), resid_m(t_len), dist(t_len);
    mute::dsp::FirFilter fda_d({0.0, 0.0, 0.8, 0.2}),
        fdb_d({0.0, 0.0, 0.0, -0.6, 0.3});
    for (int t = 0; t < t_len; ++t) {
      dist[t] = fda_d.process(na[t]) + fdb_d.process(nb[t]);
      // single ref = 1.0*na + 0.5*nb as heard at one relay position
      const Sample x_mix = na[t + 8] + 0.5f * nb[t + 8];
      const Sample ys = single.step_output(x_mix);
      const float es = fda_s.process(na[t]) + fdb_s.process(nb[t]) +
                       plant_s.process(ys);
      single.adapt(es);
      resid_s[t] = es;

      const Sample refs[] = {na[t + 8], nb[t + 8]};
      const Sample ym = multi.step_output(refs);
      const float em = fda_m.process(na[t]) + fdb_m.process(nb[t]) +
                       plant_m.process(ym);
      multi.adapt(em);
      resid_m[t] = em;
    }
    std::printf("\n-- two simultaneous sources (Section 6) --\n");
    std::printf("single reference (hears the mix) : %6.1f dB\n",
                power_db(resid_s, dist));
    std::printf("multi-reference (one per source) : %6.1f dB\n",
                power_db(resid_m, dist));
  }

  // ---- 2. Head mobility -------------------------------------------------
  {
    eval::Table table({"drift_m", "cancellation_dB"});
    for (double drift : {0.0, 0.1, 0.3, 0.6}) {
      auto run = bench::run_scheme(
          sim::Scheme::kMuteHollow, sim::NoiseKind::kWhite, 42, 8.0,
          [&](sim::SystemConfig& c) {
            c.use_rf_link = false;
            c.head_drift_m = drift;
          });
      const double row[] = {power_db(run.result.residual,
                                     run.result.disturbance)};
      table.add_row(eval::fmt(drift, 1), row, 1);
    }
    std::printf("\n-- head mobility (Section 6): drift over an 8 s run --\n");
    table.print(std::cout);
  }

  // ---- 3. Ear canal: drum vs error mic ----------------------------------
  {
    // The drum-vs-mic discrepancy comes from the ambient wave and the
    // anti-noise entering the canal from different incidence angles: their
    // canal transfer functions differ slightly, so a sum that nulls at the
    // mic does not null exactly at the drum. `mismatch` scales that
    // difference (0 = the paper's working assumption).
    eval::Table table({"canal_mismatch", "at_error_mic_dB", "at_drum_dB"});
    auto run = bench::run_scheme(sim::Scheme::kMuteHollow,
                                 sim::NoiseKind::kWhite, 42, 8.0,
                                 [](sim::SystemConfig& c) {
                                   c.use_rf_link = false;
                                 });
    const double fs = run.result.sample_rate;
    for (double mismatch : {0.0, 0.3, 1.0}) {
      acoustics::EarCanal canal_ambient(0.025, 0.0, fs);
      acoustics::EarCanal canal_anti(0.025, mismatch, fs);
      acoustics::EarCanal canal_dist(0.025, 0.0, fs);
      const auto drum_dist = canal_dist.apply(run.result.ambient_at_ear);
      const auto amb = canal_ambient.apply(run.result.ambient_at_ear);
      const auto anti = canal_anti.apply(run.result.anti_at_ear);
      Signal drum_resid(amb.size());
      for (std::size_t i = 0; i < amb.size(); ++i) {
        drum_resid[i] = static_cast<Sample>(static_cast<double>(amb[i]) +
                                            static_cast<double>(anti[i]));
      }
      const double row[] = {
          power_db(run.result.residual, run.result.disturbance),
          power_db(drum_resid, drum_dist)};
      table.add_row(eval::fmt(mismatch, 1), row, 1);
    }
    std::printf("\n-- cancellation at the ear-drum (Section 6) --\n");
    table.print(std::cout);
    std::printf("(mismatch 0 = the paper's assumption that the drum hears\n"
                " what the error mic hears; larger = anti-noise enters the\n"
                " canal from a different angle than the ambient wave)\n");
  }

  // ---- 4. FDAF vs NLMS ----------------------------------------------------
  {
    Rng rng(9);
    std::vector<double> h(256, 0.0);
    for (auto& v : h) v = rng.gaussian(0.1);
    mute::dsp::Biquad color = mute::dsp::Biquad::lowpass(900.0, 1.5, 16000.0);
    mute::dsp::FirFilter plant(h);
    Signal x(64000), d(64000);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = color.process(static_cast<Sample>(rng.gaussian(0.3)));
      d[i] = plant.process(x[i]);
    }
    eval::Table table({"after_s", "NLMS_misalign_dB", "FDAF_misalign_dB"});
    adaptive::AdaptiveFir nlms(256, 0.5);
    adaptive::BlockFdaf fdaf({.taps = 256, .mu = 0.9, .power_alpha = 0.6});
    std::size_t pos = 0;
    for (double seconds : {0.5, 1.0, 2.0, 4.0}) {
      const auto until = static_cast<std::size_t>(seconds * 16000.0);
      for (; pos < until; ++pos) nlms.step(x[pos], d[pos]);
      adaptive::BlockFdaf fresh({.taps = 256, .mu = 0.9, .power_alpha = 0.6});
      fresh.identify(std::span<const Sample>(x.data(), until),
                     std::span<const Sample>(d.data(), until));
      const double row[] = {adaptive::misalignment_db(nlms.weights(), h),
                            adaptive::misalignment_db(fresh.weights(), h)};
      table.add_row(eval::fmt(seconds, 1), row, 1);
    }
    std::printf("\n-- secondary-path identification: FDAF vs NLMS "
                "(colored excitation) --\n");
    table.print(std::cout);
  }

  // ---- 5. Privacy scrambling ---------------------------------------------
  {
    rf::RelayConfig cfg;
    cfg.scramble = true;
    rf::RelayLink link(cfg, 31);
    rf::RelayConfig plain_cfg;
    rf::RelayLink plain(plain_cfg, 31);

    audio::ToneSource tone(1500.0, 0.4, cfg.audio_rate);
    const auto audio = tone.generate(32000);
    const auto legit = link.process(audio);
    const auto eaves = link.eavesdrop(audio);

    // Correlation maximized over lag (the link has ~1 ms of group delay).
    auto correlation = [&](const Signal& heard) {
      double best = 0.0;
      for (int lag = 0; lag <= 64; ++lag) {
        double num = 0.0, xx = 0.0, yy = 0.0;
        for (std::size_t i = 8000; i + lag < heard.size(); ++i) {
          num += static_cast<double>(audio[i]) *
                 static_cast<double>(heard[i + lag]);
          xx += static_cast<double>(audio[i]) * static_cast<double>(audio[i]);
          yy += static_cast<double>(heard[i + lag]) *
                static_cast<double>(heard[i + lag]);
        }
        best = std::max(best,
                        std::abs(num) / std::sqrt(std::max(xx * yy, 1e-30)));
      }
      return best;
    };
    std::printf("\n-- privacy scrambling (Section 4.4) --\n");
    std::printf("legitimate receiver SNDR (scrambled link): %5.1f dB\n",
                link.measure_sndr_db(1500.0));
    std::printf("plain link SNDR (no scrambling)          : %5.1f dB\n",
                plain.measure_sndr_db(1500.0));
    std::printf("eavesdropper correlation with the audio  : %5.3f "
                "(legit: %5.3f)\n",
                correlation(eaves), correlation(legit));
  }
  return 0;
}
