// Section 4.1 ablation: why frequency modulation? Audio quality of the
// analog relay link under AWGN, carrier frequency offset and amplitude
// distortion — versus a naive AM forwarding baseline.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "audio/generators.hpp"
#include "common/math_utils.hpp"
#include "dsp/signal_ops.hpp"
#include "dsp/spectral.hpp"
#include "eval/report.hpp"
#include "rf/fm.hpp"
#include "rf/relay.hpp"
#include "rf/rf_channel.hpp"

namespace {

using namespace mute;

/// Naive AM baseline: amplitude-modulate the carrier and envelope-detect.
/// Compare a tone's SNDR against FM under the same channel impairments.
double am_sndr_db(double snr_db, double am_depth_distortion) {
  const double rf_fs = kDefaultRfSampleRate;
  const double tone_hz = 1000.0;
  const std::size_t n = static_cast<std::size_t>(rf_fs);
  rf::RfChannelParams params;
  params.snr_db = snr_db;
  params.cfo_hz = 0.0;
  params.phase_noise_rad = 0.0;
  rf::RfChannel channel(params, rf_fs, 9);
  Rng am_noise(17);

  Signal demod(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double m =
        0.5 * std::sin(kTwoPi * tone_hz * static_cast<double>(i) / rf_fs);
    // AM: envelope carries the audio; amplitude distortion hits directly.
    double envelope = (1.0 + m) / 2.0;
    envelope *= 1.0 + am_depth_distortion * am_noise.gaussian();
    const Complex tx(envelope, 0.0);
    const Complex rx = channel.process(tx);
    demod[i] = static_cast<Sample>(2.0 * std::abs(rx) - 1.0);
  }
  mute::dsp::remove_dc(demod);
  const auto psd = mute::dsp::welch_psd(
      std::span<const Sample>(demod.data() + n / 4, n / 2), rf_fs, 4096);
  const double bin = psd.freq_hz[1] - psd.freq_hz[0];
  const double sig = psd.band_power(tone_hz - 2 * bin, tone_hz + 2 * bin);
  const double total = psd.band_power(30.0, 8000.0);
  return power_to_db(sig / std::max(total - sig, 1e-20));
}

double fm_sndr_db(double snr_db, double cfo_hz, double pa_backoff_db) {
  rf::RelayConfig cfg;
  cfg.channel.snr_db = snr_db;
  cfg.channel.cfo_hz = cfo_hz;
  cfg.pa_backoff_db = pa_backoff_db;
  rf::RelayLink link(cfg, 21);
  return link.measure_sndr_db(1000.0);
}

}  // namespace

int main() {
  std::printf("RF-link ablation (Section 4.1): why FM?\n\n");

  // 1. SNDR vs channel SNR.
  {
    eval::Table table({"channel_SNR_dB", "FM_SNDR_dB", "AM_SNDR_dB"});
    for (double snr : {10.0, 20.0, 30.0, 40.0}) {
      const double row[] = {fm_sndr_db(snr, 200.0, 3.0), am_sndr_db(snr, 0.0)};
      table.add_row(eval::fmt(snr, 0), row, 1);
    }
    std::printf("-- audio quality vs channel SNR (1 kHz tone) --\n");
    table.print(std::cout);
  }

  // 2. Carrier frequency offset tolerance (FM: CFO -> DC, blocked).
  {
    eval::Table table({"CFO_Hz", "FM_SNDR_dB"});
    for (double cfo : {0.0, 100.0, 500.0, 2000.0, 5000.0}) {
      const double row[] = {fm_sndr_db(35.0, cfo, 3.0)};
      table.add_row(eval::fmt(cfo, 0), row, 1);
    }
    std::printf("\n-- FM tolerance to carrier frequency offset --\n");
    table.print(std::cout);
  }

  // 3. Amplitude distortion: drive the PA hard (low backoff) for FM vs
  //    envelope distortion for AM.
  {
    eval::Table table({"distortion", "FM_SNDR_dB", "AM_SNDR_dB"});
    struct Case {
      const char* label;
      double fm_backoff_db;
      double am_distortion;
    };
    for (const auto& c : {Case{"mild", 6.0, 0.02}, Case{"moderate", 1.0, 0.1},
                          Case{"severe", 0.0, 0.3}}) {
      const double row[] = {fm_sndr_db(35.0, 200.0, c.fm_backoff_db),
                            am_sndr_db(35.0, c.am_distortion)};
      table.add_row(c.label, row, 1);
    }
    std::printf("\n-- robustness to amplitude distortion --\n");
    table.print(std::cout);
  }

  std::printf("\nExpected shape: FM holds its SNDR under CFO and PA\n"
              "saturation; AM collapses with envelope distortion — the\n"
              "paper's three reasons for picking FM.\n");
  return 0;
}
