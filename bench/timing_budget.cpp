// Section 3.1 analysis: the timing story in numbers. Equation 4 lookahead
// vs relay/ear geometry, Equation 3 latency budgets, and the resulting
// non-causal tap counts at the default sample rate.
#include <cstdio>
#include <iostream>

#include "acoustics/environment.hpp"
#include "acoustics/propagation.hpp"
#include "core/timing.hpp"
#include "eval/report.hpp"
#include "rf/relay.hpp"

int main() {
  using namespace mute;

  std::printf("Timing-budget analysis (Equations 3 and 4).\n\n");

  // 1. Lookahead vs distance advantage (Eq. 4).
  {
    eval::Table table({"de_minus_dr_m", "lookahead_ms", "taps_at_16kHz"});
    for (double d : {0.25, 0.5, 1.0, 2.0, 3.4, 5.0}) {
      const double la = acoustics::lookahead_s(0.0, d);
      const double row[] = {
          la * 1e3,
          static_cast<double>(core::lookahead_taps(la, kDefaultSampleRate))};
      table.add_row(eval::fmt(d, 2), row, 1);
    }
    std::printf("-- Equation 4: geometry -> lookahead "
                "(paper: 1 m ~ 3 ms, 100x a headphone) --\n");
    table.print(std::cout);
  }

  // 2. Latency budgets (Eq. 3).
  {
    eval::Table table({"device", "adc_us", "dsp_us", "dac_us", "spk_us",
                       "total_us"});
    const auto hp = core::LatencyBudget::headphone();
    const auto mute_dev = core::LatencyBudget::mute_ear_device();
    const double r1[] = {hp.adc_us, hp.dsp_us, hp.dac_us, hp.speaker_us,
                         hp.total_us()};
    const double r2[] = {mute_dev.adc_us, mute_dev.dsp_us, mute_dev.dac_us,
                         mute_dev.speaker_us, mute_dev.total_us()};
    table.add_row("headphone", r1, 0);
    table.add_row("MUTE ear device", r2, 0);
    std::printf("\n-- Equation 3: processing budgets "
                "(a headphone has ~30 us of acoustic lead to spend) --\n");
    table.print(std::cout);
  }

  // 3. The paper-office deployment end to end.
  {
    const auto scene = acoustics::Scene::paper_office();
    const auto ch = acoustics::build_channels(scene);
    rf::RelayConfig rf_cfg;
    rf::RelayLink link(rf_cfg, 7);
    const double link_s =
        link.measure_latency_samples() / rf_cfg.audio_rate;
    const double usable = core::usable_lookahead_s(
        ch.lookahead_s, core::LatencyBudget::mute_ear_device(), link_s);
    std::printf("\n-- paper-office deployment --\n");
    std::printf("acoustic lookahead (Eq. 4)   : %7.2f ms\n",
                ch.lookahead_s * 1e3);
    std::printf("FM relay link group delay    : %7.2f ms\n", link_s * 1e3);
    std::printf("processing budget (Eq. 3)    : %7.2f ms\n",
                core::LatencyBudget::mute_ear_device().total_s() * 1e3);
    std::printf("usable lookahead             : %7.2f ms  -> N = %zu taps\n",
                usable * 1e3,
                core::lookahead_taps(usable, scene.sample_rate));
    std::printf("\nheadphone comparison: ~30 us lead - ~100 us budget -> "
                "deadline missed by ~70 us (the paper's Figure 5a).\n");
  }
  return 0;
}
