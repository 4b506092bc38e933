#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include <gtest/gtest.h>

#include "audio/generators.hpp"
#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "dsp/signal_ops.hpp"
#include "dsp/spectral.hpp"
#include "rf/fm.hpp"
#include "rf/frontend.hpp"
#include "rf/impairments.hpp"
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

// The pipeline RelayLink::process computed before it streamed internally:
// one whole-record pass per stage and one final pad.
Signal whole_record_reference(const RelayConfig& cfg, std::uint64_t seed,
                              std::span<const Sample> audio) {
  RelayTransmitter tx(cfg, seed);
  FaultInjector channel(cfg.faults, cfg.channel, kDefaultRfSampleRate,
                        seed + 1);
  EarReceiver rx(cfg, seed + 2);
  Signal out = rx.receive(channel.process(tx.transmit(audio)));
  out.resize(audio.size(), 0.0f);
  return out;
}

void expect_same_bits(const Signal& a, const Signal& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << "diverged at sample " << i;
  }
}

TEST(RelayLink, StreamedProcessMatchesTheWholeRecordPipeline) {
  struct Case {
    double audio_rate;
    bool scramble;
  };
  for (const Case c : {Case{16000.0, false}, Case{48000.0, true}}) {
    RelayConfig cfg;
    cfg.audio_rate = c.audio_rate;
    cfg.scramble = c.scramble;
    // Drift keeps a fractional-delay ring and impulses draw from the
    // injector's RNG: both carry state across the internal block seams.
    cfg.faults.clock_drift(0.02, 0.1, 300.0)
        .impulse_noise(0.05, 0.05, 2000.0, 5.0);
    // Not a whole number of internal blocks: the last one is partial.
    const std::size_t n = 5 * kRelayLinkBlock + 317;
    audio::WhiteNoiseSource noise(0.1, 21);
    const Signal in = noise.generate(n);
    RelayLink link(cfg, 31);
    SCOPED_TRACE(c.audio_rate);
    expect_same_bits(link.process(in), whole_record_reference(cfg, 31, in));
  }
}

TEST(RelayLink, CallsOnWholeRoundTripsConcatenateExactly) {
  RelayConfig cfg;
  cfg.audio_rate = 48000.0;
  cfg.scramble = true;  // odd calls: the scrambler parity must carry over
  const std::size_t quantum = relay_block_quantum(cfg.audio_rate);
  ASSERT_EQ(quantum, 3u);
  audio::WhiteNoiseSource noise(0.1, 22);
  const Signal in = noise.generate(20 * 161 * quantum);
  RelayLink whole(cfg, 41);
  RelayLink blocks(cfg, 41);
  Signal streamed;
  for (std::size_t start = 0; start < in.size(); start += 161 * quantum) {
    const Signal part = blocks.process(
        std::span<const Sample>(in).subspan(start, 161 * quantum));
    streamed.insert(streamed.end(), part.begin(), part.end());
  }
  expect_same_bits(streamed, whole.process(in));
}

TEST(RelayLink, RejectsAudioRatesThatCannotRoundTripExactly) {
  EXPECT_EQ(relay_block_quantum(16000.0), 1u);
  EXPECT_EQ(relay_block_quantum(8000.0), 1u);
  for (const double rate : {44100.0, 22050.0}) {
    RelayConfig cfg;
    cfg.audio_rate = rate;
    EXPECT_THROW(RelayLink(cfg, 1), PreconditionError) << rate;
  }
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
