#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace mute {
namespace {

TEST(MathUtils, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
  EXPECT_THROW(next_pow2(0), PreconditionError);
}

TEST(MathUtils, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(63));
}

TEST(MathUtils, DbConversionsRoundTrip) {
  EXPECT_NEAR(amplitude_to_db(10.0), 20.0, 1e-12);
  EXPECT_NEAR(power_to_db(100.0), 20.0, 1e-12);
  EXPECT_NEAR(db_to_amplitude(amplitude_to_db(0.37)), 0.37, 1e-12);
  EXPECT_NEAR(db_to_power(power_to_db(5.5)), 5.5, 1e-12);
}

TEST(MathUtils, DbOfZeroIsFloored) {
  EXPECT_GT(amplitude_to_db(0.0), -300.0);
  EXPECT_GT(power_to_db(0.0), -300.0);
}

TEST(MathUtils, SincValues) {
  EXPECT_DOUBLE_EQ(sinc(0.0), 1.0);
  EXPECT_NEAR(sinc(1.0), 0.0, 1e-12);
  EXPECT_NEAR(sinc(0.5), 2.0 / kPi, 1e-12);
}

TEST(MathUtils, WrapPhaseStaysInRange) {
  for (double phi : {-100.0, -3.2, 0.0, 3.2, 50.0, 1e4}) {
    const double w = wrap_phase(phi);
    EXPECT_GT(w, -kPi - 1e-12);
    EXPECT_LE(w, kPi + 1e-12);
    // Same angle modulo 2*pi.
    EXPECT_NEAR(std::remainder(w - phi, kTwoPi), 0.0, 1e-9);
  }
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.gaussian(), b.gaussian());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.gaussian() != b.gaussian()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, GaussianMomentsRoughlyCorrect) {
  Rng rng(7);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.gaussian();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 4));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 4);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  // The child stream differs from a fresh Rng(42).
  Rng fresh(42);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (child.gaussian() != fresh.gaussian()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Error, EnsureThrowsWithMessage) {
  try {
    ensure(false, "my condition failed");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("my condition failed"),
              std::string::npos);
  }
}

TEST(Error, EnsurePassesOnTrue) {
  EXPECT_NO_THROW(ensure(true, "never"));
  EXPECT_NO_THROW(invariant(true, "never"));
}

TEST(Error, InvariantThrowsLogicError) {
  EXPECT_THROW(invariant(false, "bug"), InvariantError);
}

TEST(Types, PhysicalConstantsSane) {
  EXPECT_NEAR(kSpeedOfSound, 340.0, 1.0);
  EXPECT_GT(kSpeedOfLight / kSpeedOfSound, 800000.0);
  EXPECT_EQ(kDefaultSampleRate, 16000.0);
}

}  // namespace
}  // namespace mute
