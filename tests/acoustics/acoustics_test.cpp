#include <cmath>

#include <gtest/gtest.h>

#include "acoustics/channel.hpp"
#include "acoustics/environment.hpp"
#include "acoustics/propagation.hpp"
#include "acoustics/room.hpp"
#include "acoustics/transducer.hpp"
#include "common/math_utils.hpp"
#include "dsp/signal_ops.hpp"

namespace mute::acoustics {
namespace {

constexpr double kFs = 16000.0;

TEST(Propagation, DistanceAndDelay) {
  const Point a{0, 0, 0}, b{3.4, 0, 0};
  EXPECT_NEAR(distance(a, b), 3.4, 1e-12);
  EXPECT_NEAR(acoustic_delay_s(a, b), 0.01, 1e-9);
  EXPECT_LT(rf_delay_s(a, b), 1e-7);
}

TEST(Propagation, LookaheadEquation4) {
  // Paper: (de - dr) = 1 m -> ~3 ms.
  EXPECT_NEAR(lookahead_s(1.0, 2.0), 1.0 / 340.0, 1e-12);
  EXPECT_LT(lookahead_s(3.0, 1.0), 0.0);  // relay farther -> negative
}

TEST(Propagation, SpreadingGainFloorsNearField) {
  EXPECT_NEAR(spreading_gain(2.0), 0.5, 1e-12);
  EXPECT_NEAR(spreading_gain(0.01), 10.0, 1e-12);  // floored at 0.1 m
}

TEST(Room, ContainsChecksBounds) {
  Room r = Room::office();
  EXPECT_TRUE(r.contains({1, 1, 1}));
  EXPECT_FALSE(r.contains({-1, 1, 1}));
  EXPECT_FALSE(r.contains({1, 1, 10}));
}

TEST(Rir, DirectPathArrivesAtGeometricDelay) {
  Room r = Room::anechoic();
  RirOptions opts;
  opts.sample_rate = kFs;
  const Point src{1, 2, 1.5}, rcv{3, 2, 1.5};
  const auto rir = image_source_rir(r, src, rcv, opts);
  // Strongest tap near distance/343*fs.
  std::size_t best = 0;
  for (std::size_t i = 1; i < rir.size(); ++i) {
    if (std::abs(rir[i]) > std::abs(rir[best])) best = i;
  }
  const double expected = 2.0 / r.speed_of_sound * kFs;
  EXPECT_NEAR(static_cast<double>(best), expected, 1.5);
}

TEST(Rir, AmplitudeFollowsSpreadingLoss) {
  Room r = Room::anechoic();
  RirOptions opts;
  opts.sample_rate = kFs;
  const Point src{1, 2.5, 1.5};
  const auto rir_near = image_source_rir(r, src, {2, 2.5, 1.5}, opts);
  const auto rir_far = image_source_rir(r, src, {5, 2.5, 1.5}, opts);
  auto peak_of = [](const std::vector<double>& h) {
    double p = 0;
    for (double v : h) p = std::max(p, std::abs(v));
    return p;
  };
  // 1 m vs 4 m: amplitude ratio ~4.
  EXPECT_NEAR(peak_of(rir_near) / peak_of(rir_far), 4.0, 0.6);
}

TEST(Rir, ReverberantRoomHasEnergyTail) {
  Room r = Room::office();
  RirOptions opts;
  opts.sample_rate = kFs;
  const auto rir = image_source_rir(r, {1, 2.5, 1.5}, {5, 2.5, 1.2}, opts);
  double early = 0.0, late = 0.0;
  for (std::size_t i = 0; i < 400; ++i) early += rir[i] * rir[i];
  for (std::size_t i = 400; i < rir.size(); ++i) late += rir[i] * rir[i];
  EXPECT_GT(late, 1e-4 * early);  // a real tail exists
  EXPECT_LT(late, early);         // but decays
}

TEST(Rir, HigherReflectivityMeansLongerRt60) {
  RirOptions opts;
  opts.sample_rate = kFs;
  opts.length = 4096;
  Room damped = Room::office();
  Room live = Room::office();
  live.reflection_x = live.reflection_y = 0.85;
  live.reflection_z = 0.8;
  live.max_order = 5;
  const Point src{1, 2.5, 1.5}, rcv{5, 2.5, 1.2};
  const double rt_damped =
      estimate_rt60(image_source_rir(damped, src, rcv, opts), kFs);
  const double rt_live =
      estimate_rt60(image_source_rir(live, src, rcv, opts), kFs);
  EXPECT_GT(rt_live, rt_damped);
}

TEST(Rir, RejectsOutsidePositions) {
  Room r = Room::office();
  RirOptions opts;
  EXPECT_THROW(image_source_rir(r, {-1, 0, 0}, {1, 1, 1}, opts),
               PreconditionError);
}

TEST(Channel, ShiftIrDelaysTaps) {
  const std::vector<double> ir = {1.0, 0.5, 0.25};
  const auto shifted = shift_ir(ir, 1);
  ASSERT_EQ(shifted.size(), 3u);
  EXPECT_DOUBLE_EQ(shifted[0], 0.0);
  EXPECT_DOUBLE_EQ(shifted[1], 1.0);
  EXPECT_DOUBLE_EQ(shifted[2], 0.5);
}

TEST(Channel, CascadeEqualsConvolution) {
  const std::vector<double> a = {1.0, 0.5};
  const std::vector<double> b = {0.25, -0.25};
  const auto c = cascade_ir(a, b, 8);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_DOUBLE_EQ(c[0], 0.25);
  EXPECT_DOUBLE_EQ(c[1], -0.125);
  EXPECT_DOUBLE_EQ(c[2], -0.125);
}

TEST(Transducer, CheapMicRollsOffLowFrequencies) {
  auto mic = Transducer::cheap_microphone(kFs, 1);
  EXPECT_LT(mic.response_magnitude(50.0, kFs), 0.3);
  EXPECT_NEAR(mic.response_magnitude(1000.0, kFs), 1.0, 0.1);
}

TEST(Transducer, PremiumIsFlatterAndQuieter) {
  auto cheap = Transducer::cheap_microphone(kFs, 1);
  auto premium = Transducer::premium_microphone(kFs, 1);
  EXPECT_GT(premium.response_magnitude(60.0, kFs),
            cheap.response_magnitude(60.0, kFs));
  EXPECT_LT(premium.self_noise_rms(), cheap.self_noise_rms());
}

TEST(Transducer, SelfNoisePresentOnSilence) {
  auto mic = Transducer::cheap_microphone(kFs, 5);
  Signal silence(8000, 0.0f);
  const auto out = mic.apply(silence);
  EXPECT_NEAR(mute::dsp::rms(out), mic.self_noise_rms(), 0.5 * mic.self_noise_rms());
}

TEST(Transducer, IdealIsTransparent) {
  auto t = Transducer::ideal(1);
  EXPECT_FLOAT_EQ(t.process(0.42f), 0.42f);
  EXPECT_DOUBLE_EQ(t.response_magnitude(123.0, kFs), 1.0);
}

TEST(Environment, PaperOfficeHasPositiveLookahead) {
  const auto scene = Scene::paper_office();
  const auto cs = build_channels(scene);
  EXPECT_GT(cs.lookahead_s, 5e-3);  // several ms as the paper promises
  EXPECT_GT(cs.direct_ne_samples, cs.direct_nr_samples);
  EXPECT_LT(cs.direct_se_samples, 5.0);  // speaker is centimeters away
}

TEST(Environment, ChannelsCarryEnergy) {
  const auto cs = build_channels(Scene::paper_office());
  EXPECT_GT(cs.h_nr.energy(), 0.0);
  EXPECT_GT(cs.h_ne.energy(), 0.0);
  EXPECT_GT(cs.h_se.energy(), cs.h_ne.energy());  // near-field is louder
}

class RirOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(RirOrderTest, EnergyGrowsWithImageOrder) {
  Room r = Room::office();
  r.max_order = GetParam();
  RirOptions opts;
  opts.sample_rate = kFs;
  const auto rir = image_source_rir(r, {1, 2.5, 1.5}, {5, 2.5, 1.2}, opts);
  double e = 0.0;
  for (double v : rir) e += v * v;
  static double prev_energy = 0.0;
  if (GetParam() == 0) prev_energy = 0.0;
  EXPECT_GE(e, prev_energy * 0.999);
  prev_energy = e;
}

INSTANTIATE_TEST_SUITE_P(Orders, RirOrderTest, ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace mute::acoustics
