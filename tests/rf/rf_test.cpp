#include <cmath>

#include <gtest/gtest.h>

#include "audio/generators.hpp"
#include "common/math_utils.hpp"
#include "dsp/signal_ops.hpp"
#include "dsp/spectral.hpp"
#include "rf/fm.hpp"
#include "rf/frontend.hpp"
#include "rf/oscillator.hpp"
#include "rf/relay.hpp"
#include "rf/rf_channel.hpp"

namespace mute::rf {
namespace {

constexpr double kRfFs = 256000.0;

TEST(Nco, ProducesUnitPhasorsAtFrequency) {
  Nco nco(1000.0, kRfFs);
  Complex prev = nco.tick();
  for (int i = 0; i < 1000; ++i) {
    const Complex c = nco.tick();
    EXPECT_NEAR(std::abs(c), 1.0, 1e-12);
    const double dphi = std::arg(c * std::conj(prev));
    EXPECT_NEAR(dphi, kTwoPi * 1000.0 / kRfFs, 1e-9);
    prev = c;
  }
}

TEST(Fm, RoundTripRecoversAudio) {
  FmModulator mod(60000.0, kRfFs);
  FmDemodulator demod(60000.0, kRfFs);
  const double audio_freq = 1000.0;
  const int n = 40000;
  Signal in(n), out(n);
  for (int i = 0; i < n; ++i) {
    in[i] = static_cast<Sample>(0.5 * std::sin(kTwoPi * audio_freq * i / kRfFs));
    out[i] = demod.demodulate(mod.modulate(in[i]));
  }
  // After the DC-block settles, output tracks input.
  double err = 0.0;
  for (int i = n / 2; i < n; ++i) {
    err = std::max(err, std::abs(static_cast<double>(out[i] - in[i])));
  }
  EXPECT_LT(err, 0.02);
}

TEST(Fm, ConstantEnvelope) {
  FmModulator mod(60000.0, kRfFs);
  audio::WhiteNoiseSource noise(0.3, 3);
  const auto audio = noise.generate(1000);
  const auto rf = mod.modulate(audio);
  for (const auto& c : rf) EXPECT_NEAR(std::abs(c), 1.0, 1e-12);
}

TEST(Fm, CfoAppearsAsDcAndIsBlocked) {
  // Rotate the modulated signal by a constant frequency offset; after the
  // discriminator this is a DC shift, which the DC blocker removes --
  // the paper's Section 4.1 argument for FM.
  FmModulator mod(60000.0, kRfFs);
  FmDemodulator demod(60000.0, kRfFs);
  Nco cfo(500.0, kRfFs);
  const int n = 60000;
  Signal in(n), out(n);
  for (int i = 0; i < n; ++i) {
    in[i] = static_cast<Sample>(0.4 * std::sin(kTwoPi * 800.0 * i / kRfFs));
    out[i] = demod.demodulate(mod.modulate(in[i]) * cfo.tick());
  }
  double err = 0.0;
  for (int i = n / 2; i < n; ++i) {
    err = std::max(err, std::abs(static_cast<double>(out[i] - in[i])));
  }
  EXPECT_LT(err, 0.03);
}

TEST(Fm, ImmuneToAmplitudeDistortion) {
  // Crush the envelope to 30% with random AM: FM demod should not care.
  Rng rng(5);
  FmModulator mod(60000.0, kRfFs);
  FmDemodulator demod(60000.0, kRfFs);
  const int n = 40000;
  Signal in(n), out(n);
  double am = 1.0;
  for (int i = 0; i < n; ++i) {
    in[i] = static_cast<Sample>(0.4 * std::sin(kTwoPi * 600.0 * i / kRfFs));
    am = 0.999 * am + 0.001 * (0.65 + 0.35 * rng.uniform(0.0, 1.0));
    out[i] = demod.demodulate(mod.modulate(in[i]) * am);
  }
  double err = 0.0;
  for (int i = n / 2; i < n; ++i) {
    err = std::max(err, std::abs(static_cast<double>(out[i] - in[i])));
  }
  EXPECT_LT(err, 0.02);
}

TEST(FrontEnd, LpfRemovesOutOfBandAudio) {
  AudioFrontEnd fe(7000.0, 1.0, 4.0, kRfFs);
  // 30 kHz tone at the RF processing rate should be strongly attenuated.
  const int n = 20000;
  double out_peak = 0.0;
  for (int i = 0; i < n; ++i) {
    const Sample y = fe.process(
        static_cast<Sample>(std::sin(kTwoPi * 30000.0 * i / kRfFs)));
    if (i > n / 2) out_peak = std::max(out_peak, std::abs(static_cast<double>(y)));
  }
  EXPECT_LT(out_peak, 0.05);
}

TEST(FrontEnd, SoftClipSaturates) {
  AudioFrontEnd fe(7000.0, 1.0, 0.5, kRfFs);
  Sample max_out = 0.0f;
  for (int i = 0; i < 1000; ++i) {
    max_out = std::max(max_out, fe.process(10.0f));
  }
  EXPECT_LE(static_cast<double>(max_out), 0.5 + 1e-6);
}

TEST(PowerAmp, CompressesOnlyLargeSignals) {
  PowerAmplifier pa(6.0);  // saturation at ~2.0
  const Complex small(0.1, 0.0);
  const Complex large(10.0, 0.0);
  EXPECT_NEAR(std::abs(pa.process(small)), 0.1, 1e-3);
  EXPECT_LT(std::abs(pa.process(large)), 2.1);
  // Phase is preserved.
  const Complex rotated = std::polar(5.0, 1.0);
  EXPECT_NEAR(std::arg(pa.process(rotated)), 1.0, 1e-9);
}

TEST(RfChannel, AwgnMatchesConfiguredSnr) {
  RfChannelParams p;
  p.snr_db = 20.0;
  p.cfo_hz = 0.0;
  p.phase_noise_rad = 0.0;
  RfChannel ch(p, kRfFs, 7);
  // Unit-power input; measure output error power vs rotated input.
  const int n = 50000;
  double noise_power = 0.0;
  Nco carrier(1000.0, kRfFs);
  // Estimate by comparing magnitudes: |y|^2 averages 1 + noise power.
  double mag2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const Complex x = carrier.tick();
    const Complex y = ch.process(x);
    mag2 += std::norm(y);
  }
  noise_power = mag2 / n - 1.0;
  EXPECT_NEAR(power_to_db(1.0 / noise_power), 20.0, 1.5);
}

TEST(RelayLink, AudioSurvivesFullChain) {
  RelayConfig cfg;
  RelayLink link(cfg, 11);
  const double sndr = link.measure_sndr_db(1000.0);
  EXPECT_GT(sndr, 25.0);  // clean audio through mod/channel/demod
}

TEST(RelayLink, LatencyIsSmallAndPositive) {
  RelayConfig cfg;
  RelayLink link(cfg, 13);
  const double latency = link.measure_latency_samples();
  EXPECT_GE(latency, 0.0);
  EXPECT_LT(latency, 0.01 * cfg.audio_rate);  // under 10 ms
}

TEST(RelayLink, OutputLengthMatchesInput) {
  RelayConfig cfg;
  RelayLink link(cfg, 15);
  audio::WhiteNoiseSource noise(0.2, 1);
  const auto in = noise.generate(4096);
  const auto out = link.process(in);
  EXPECT_EQ(out.size(), in.size());
}

TEST(RelayLink, WorseSnrDegradesSndr) {
  RelayConfig good_cfg;
  good_cfg.channel.snr_db = 40.0;
  RelayConfig bad_cfg;
  bad_cfg.channel.snr_db = 8.0;
  RelayLink good(good_cfg, 17), bad(bad_cfg, 17);
  EXPECT_GT(good.measure_sndr_db(1000.0), bad.measure_sndr_db(1000.0) + 3.0);
}

class FmDeviationTest : public ::testing::TestWithParam<double> {};

TEST_P(FmDeviationTest, RoundTripAcrossDeviations) {
  const double dev = GetParam();
  FmModulator mod(dev, kRfFs);
  FmDemodulator demod(dev, kRfFs);
  const int n = 30000;
  double err = 0.0;
  Signal in(n);
  for (int i = 0; i < n; ++i) {
    in[i] = static_cast<Sample>(0.3 * std::sin(kTwoPi * 700.0 * i / kRfFs));
    const Sample out = demod.demodulate(mod.modulate(in[i]));
    if (i > n / 2) {
      err = std::max(err, std::abs(static_cast<double>(out - in[i])));
    }
  }
  EXPECT_LT(err, 0.02) << "deviation " << dev;
}

INSTANTIATE_TEST_SUITE_P(Deviations, FmDeviationTest,
                         ::testing::Values(20000.0, 40000.0, 80000.0));

}  // namespace
}  // namespace mute::rf

// -- appended coverage: spectrum planning (Section 6) ---------------------
#include "rf/spectrum_plan.hpp"

namespace mute::rf {
namespace {

TEST(SpectrumPlan, CarsonRule) {
  EXPECT_DOUBLE_EQ(carson_bandwidth_hz(60000.0, 8000.0), 136000.0);
  EXPECT_THROW(carson_bandwidth_hz(0.0, 8000.0), PreconditionError);
}

TEST(SpectrumPlan, IsmBandHoldsManyRelays) {
  // Paper: "covering an area requires few relays (3-4); the total
  // bandwidth occupied remains a small fraction" of the 26 MHz band.
  const double bw = carson_bandwidth_hz(60000.0, 8000.0);
  const auto capacity = relay_capacity(kIsmBandHz, bw, 20000.0);
  EXPECT_GT(capacity, 100u);  // far more than the 3-4 a room needs
}

TEST(SpectrumPlan, AssignedChannelsDoNotOverlap) {
  const double bw = 136000.0;
  const double guard = 20000.0;
  const auto centers = assign_channels(8, kIsmBandHz, bw, guard);
  ASSERT_EQ(centers.size(), 8u);
  for (std::size_t i = 1; i < centers.size(); ++i) {
    EXPECT_GE(centers[i] - centers[i - 1], bw + guard - 1e-9);
  }
  // Every channel fits inside the band.
  EXPECT_LE(centers.back() + bw / 2.0, kIsmBandHz);
}

TEST(SpectrumPlan, RejectsOvercrowding) {
  EXPECT_THROW(assign_channels(1000, kIsmBandHz, 136000.0, 20000.0),
               PreconditionError);
}

}  // namespace
}  // namespace mute::rf
