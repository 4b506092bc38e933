#include "dsp/convolution.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace mute::dsp {
namespace {

TEST(Convolve, KnownSmallExample) {
  const Signal a = {1.0f, 2.0f, 3.0f};
  const std::vector<double> b = {1.0, -1.0};
  const auto y = convolve(a, b);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[1], 1.0f);
  EXPECT_FLOAT_EQ(y[2], 1.0f);
  EXPECT_FLOAT_EQ(y[3], -3.0f);
}

TEST(Convolve, DeltaIsIdentity) {
  Rng rng(1);
  Signal a(50);
  for (auto& v : a) v = static_cast<Sample>(rng.gaussian());
  const auto y = convolve(a, std::vector<double>{1.0});
  ASSERT_EQ(y.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(y[i], a[i]);
}

TEST(Convolve, IsCommutativeInEffect) {
  const Signal a = {1.0f, 0.5f, -0.5f, 2.0f};
  const std::vector<double> b = {0.3, -0.2, 0.1};
  const auto y1 = convolve(a, b);
  Signal b_as_signal = {0.3f, -0.2f, 0.1f};
  std::vector<double> a_as_coeff = {1.0, 0.5, -0.5, 2.0};
  const auto y2 = convolve(b_as_signal, a_as_coeff);
  ASSERT_EQ(y1.size(), y2.size());
  for (std::size_t i = 0; i < y1.size(); ++i) {
    EXPECT_NEAR(y1[i], y2[i], 1e-6);
  }
}

TEST(FftConvolve, MatchesDirect) {
  Rng rng(2);
  Signal a(333);
  std::vector<double> b(47);
  for (auto& v : a) v = static_cast<Sample>(rng.gaussian());
  for (auto& v : b) v = rng.gaussian();
  const auto direct = convolve(a, b);
  const auto fast = fft_convolve(a, b);
  ASSERT_EQ(direct.size(), fast.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct[i], fast[i], 1e-4);
  }
}

TEST(ConvolveSame, KeepsInputLength) {
  Signal a(100, 1.0f);
  std::vector<double> b(17, 0.1);
  const auto y = convolve_same(a, b);
  EXPECT_EQ(y.size(), a.size());
}

TEST(Convolve, RejectsEmptyInputs) {
  Signal empty;
  Signal a(4, 1.0f);
  EXPECT_THROW(convolve(empty, std::vector<double>{1.0}), PreconditionError);
  EXPECT_THROW(convolve(a, std::vector<double>{}), PreconditionError);
}

class ConvolutionSizeTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(ConvolutionSizeTest, FftAndDirectAgreeAcrossSizes) {
  const auto [na, nb] = GetParam();
  Rng rng(na * 31 + nb);
  Signal a(na);
  std::vector<double> b(nb);
  for (auto& v : a) v = static_cast<Sample>(rng.gaussian());
  for (auto& v : b) v = rng.gaussian();
  const auto direct = convolve(a, b);
  const auto fast = fft_convolve(a, b);
  ASSERT_EQ(direct.size(), na + nb - 1);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct[i], fast[i], 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ConvolutionSizeTest,
    ::testing::Values(std::make_pair(1u, 1u), std::make_pair(2u, 7u),
                      std::make_pair(64u, 64u), std::make_pair(100u, 3u),
                      std::make_pair(5u, 200u), std::make_pair(511u, 513u)));

}  // namespace
}  // namespace mute::dsp
