// FaultSchedule / FaultInjector: determinism, per-kind signal behaviour,
// and RelayLink's fault-free latency probe.
#include <cmath>
#include <complex>

#include <gtest/gtest.h>

#include "audio/generators.hpp"
#include "common/math_utils.hpp"
#include "dsp/signal_ops.hpp"
#include "rf/impairments.hpp"
#include "rf/relay.hpp"

namespace mute::rf {
namespace {

constexpr double kRfFs = 256000.0;

/// A clean channel so fault effects are not masked by AWGN/CFO.
RfChannelParams quiet_channel() {
  RfChannelParams p;
  p.snr_db = 80.0;
  p.cfo_hz = 0.0;
  p.phase_noise_rad = 0.0;
  return p;
}

ComplexSignal unit_carrier(std::size_t n) {
  return ComplexSignal(n, Complex(1.0, 0.0));
}

TEST(FaultSchedule, FluentBuildersRecordEvents) {
  FaultSchedule s;
  s.relay_off(1.0, 0.5)
      .jammer(2.0, 0.25, 40e3, 6.0)
      .deep_fade(3.0, 0.5, 35.0)
      .impulse_noise(4.0, 0.5, 200.0, 10.0)
      .clock_drift(5.0, 1.0, 80.0);
  ASSERT_EQ(s.events().size(), 5u);
  EXPECT_TRUE(s.has(FaultKind::kRelayOff));
  EXPECT_TRUE(s.has(FaultKind::kJammer));
  EXPECT_TRUE(s.has(FaultKind::kClockDrift));
  EXPECT_FALSE(FaultSchedule{}.has(FaultKind::kJammer));
  EXPECT_DOUBLE_EQ(s.end_s(), 6.0);
  EXPECT_DOUBLE_EQ(s.events()[1].jammer_offset_hz, 40e3);
  EXPECT_DOUBLE_EQ(s.events()[1].jammer_power_db, 6.0);
  EXPECT_TRUE(FaultSchedule{}.empty());
}

TEST(FaultInjector, DeterministicForSameSeed) {
  FaultSchedule s;
  s.jammer(0.0, 1.0, 10e3, 0.0).impulse_noise(0.0, 1.0, 500.0, 5.0);
  FaultInjector a(s, quiet_channel(), kRfFs, 33);
  FaultInjector b(s, quiet_channel(), kRfFs, 33);
  FaultInjector c(s, quiet_channel(), kRfFs, 34);
  const auto x = unit_carrier(4096);
  const auto ya = a.process(x);
  const auto yb = b.process(x);
  const auto yc = c.process(x);
  double diff_ab = 0.0, diff_ac = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    diff_ab = std::max(diff_ab, std::abs(ya[i] - yb[i]));
    diff_ac = std::max(diff_ac, std::abs(ya[i] - yc[i]));
  }
  EXPECT_EQ(diff_ab, 0.0);  // same seed: bit-identical
  EXPECT_GT(diff_ac, 1e-6);  // different seed: different noise draws
}

TEST(FaultInjector, RelayOffZeroesTheWindowOnly) {
  FaultSchedule s;
  s.relay_off(0.01, 0.01);  // samples [2560, 5120)
  FaultInjector inj(s, quiet_channel(), kRfFs, 1);
  const auto y = inj.process(unit_carrier(7680));
  // Before and after the window the carrier survives; inside it is gone.
  EXPECT_GT(std::abs(y[1000]), 0.5);
  EXPECT_GT(std::abs(y[6000]), 0.5);
  for (std::size_t i = 2600; i < 5100; ++i) {
    EXPECT_LT(std::abs(y[i]), 1e-2) << "at sample " << i;
  }
}

TEST(FaultInjector, DeepFadeAttenuatesByDepth) {
  FaultSchedule s;
  s.deep_fade(0.02, 0.04, /*depth_db=*/30.0, /*ramp_s=*/0.005);
  FaultInjector inj(s, quiet_channel(), kRfFs, 1);
  const auto y = inj.process(unit_carrier(static_cast<std::size_t>(kRfFs * 0.08)));
  // Fade bottom (well inside the ramps): ~ -30 dB amplitude.
  const double bottom = std::abs(y[static_cast<std::size_t>(kRfFs * 0.04)]);
  EXPECT_NEAR(amplitude_to_db(bottom), -30.0, 1.0);
  // Outside: unity-ish.
  EXPECT_GT(std::abs(y[100]), 0.9);
  EXPECT_GT(std::abs(y.back()), 0.9);
}

TEST(FaultInjector, JammerAddsToneAtRequestedPower) {
  FaultSchedule s;
  s.jammer(0.0, 1.0, /*offset_hz=*/20e3, /*power_db=*/-6.0);
  // Zero input: the output IS the jammer (plus negligible channel noise).
  FaultInjector inj(s, quiet_channel(), kRfFs, 7);
  const auto y = inj.process(ComplexSignal(8192, Complex(0.0, 0.0)));
  double p = 0.0;
  for (const auto& c : y) p += std::norm(c);
  p /= static_cast<double>(y.size());
  EXPECT_NEAR(power_to_db(p), -6.0, 0.5);
}

TEST(FaultInjector, ClockDriftAccumulatesDelay) {
  FaultSchedule s;
  s.clock_drift(0.0, 1.0, /*ppm=*/100.0);
  FaultInjector inj(s, quiet_channel(), kRfFs, 1);
  (void)inj.process(unit_carrier(static_cast<std::size_t>(kRfFs)));
  // 100 ppm over 1 s of stream = 100e-6 * fs samples of accumulated skew.
  EXPECT_NEAR(inj.accumulated_drift_samples(), 100e-6 * kRfFs, 1.0);
  EXPECT_DOUBLE_EQ(inj.elapsed_s(), 1.0);
}

TEST(FaultInjector, EmptyScheduleMatchesBareChannel) {
  RfChannel bare(quiet_channel(), kRfFs, 5);
  FaultInjector inj(FaultSchedule{}, quiet_channel(), kRfFs, 5);
  const auto x = unit_carrier(2048);
  const auto ya = bare.process(x);
  const auto yb = inj.process(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(ya[i], yb[i]) << "at sample " << i;
  }
}

TEST(RelayLink, LatencyProbeIgnoresScheduledFaults) {
  RelayConfig clean_cfg;
  const double clean_latency =
      RelayLink(clean_cfg, 3).measure_latency_samples();

  // An outage, then a fast clock: streamed, the drift shifts this link's
  // group delay by 200 ppm * 1 s = 51 RF samples, ~3 audio samples.
  RelayConfig faulty_cfg;
  faulty_cfg.faults.relay_off(0.0, 0.25).clock_drift(0.25, 1.0, 200.0);
  RelayLink faulty(faulty_cfg, 3);
  // The probe strips faults: it measures the healthy chain's group delay,
  // not the outage, and nothing the link does while it streams moves it.
  EXPECT_EQ(faulty.measure_latency_samples(), clean_latency);
  mute::audio::WhiteNoiseSource noise(0.1, 4);
  (void)faulty.process(noise.generate(
      static_cast<std::size_t>(1.5 * faulty_cfg.audio_rate)));
  EXPECT_EQ(faulty.measure_latency_samples(), clean_latency);
  faulty.retune(3);
  EXPECT_EQ(faulty.measure_latency_samples(), clean_latency);
  faulty.set_tx_gain_db(-6.0);
  EXPECT_EQ(faulty.measure_latency_samples(), clean_latency);
  EXPECT_EQ(RelayLink(faulty_cfg, 3).measure_latency_samples(), clean_latency);
}

TEST(RelayLink, RelayOffSilencesTheForwardedAudio) {
  RelayConfig cfg;
  cfg.faults.relay_off(0.5, 0.4);
  RelayLink link(cfg, 9);
  audio::WhiteNoiseSource noise(0.1, 21);
  const auto audio_in = noise.generate(static_cast<std::size_t>(16000.0 * 1.2));
  const auto out = link.process(audio_in);
  ASSERT_EQ(out.size(), audio_in.size());
  // During the outage the demodulator free-runs on channel noise: the
  // output is *louder* garbage, not silence — exactly what LinkMonitor
  // keys on. Healthy windows track the input level instead.
  const auto rms = [&](double t0, double t1) {
    const auto i0 = static_cast<std::size_t>(t0 * 16000.0);
    const auto i1 = static_cast<std::size_t>(t1 * 16000.0);
    return mute::dsp::rms(std::span<const Sample>(out.data() + i0, i1 - i0));
  };
  EXPECT_GT(rms(0.6, 0.85), 2.0 * rms(0.2, 0.45));
}

}  // namespace
}  // namespace mute::rf
