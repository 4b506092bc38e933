// Hot-path kernel layer (DESIGN.md §10): the vectorization-friendly
// reductions must agree with their naive reference implementations to
// reassociation error on every size class (empty, sub-unroll, odd tails,
// denormal inputs), and the element-wise kernels bit for bit (no clone may
// fuse a multiply-add); the fused FxLMS pass must be bit-identical to the
// three kernels it replaces; the doubled-buffer ring histories must be
// bit-identical to a shift-register reference across several wraparounds;
// and the block FIR path must match the scalar path sample for sample.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "dsp/fir_filter.hpp"
#include "dsp/kernels.hpp"
#include "dsp/ring_history.hpp"

namespace {

using namespace mute;
namespace k = mute::dsp::kernels;

std::vector<double> random_vec(std::size_t n, unsigned seed,
                               double scale = 1.0) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.gaussian() * scale;
  return v;
}

// Sizes straddling the 8-lane unroll: empty, tiny, one short of / exactly /
// one past multiples of the unroll width, and large odd.
const std::size_t kSizes[] = {0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 255, 1024, 1037};

TEST(Kernels, DotMatchesNaive) {
  for (const std::size_t n : kSizes) {
    const auto a = random_vec(n, 100 + static_cast<unsigned>(n));
    const auto b = random_vec(n, 200 + static_cast<unsigned>(n));
    const double got = k::dot(a.data(), b.data(), n);
    const double want = k::naive::dot(a.data(), b.data(), n);
    EXPECT_NEAR(got, want, 1e-12 * (std::abs(want) + static_cast<double>(n)))
        << "n=" << n;
  }
}

TEST(Kernels, EnergyMatchesNaiveAndDotWithSelf) {
  for (const std::size_t n : kSizes) {
    const auto x = random_vec(n, 300 + static_cast<unsigned>(n));
    const double got = k::energy(x.data(), n);
    const double want = k::naive::energy(x.data(), n);
    EXPECT_NEAR(got, want, 1e-12 * (want + static_cast<double>(n)))
        << "n=" << n;
    EXPECT_GE(got, 0.0);
  }
}

TEST(Kernels, AxpyLeakyNormMatchesNaive) {
  for (const std::size_t n : kSizes) {
    auto w_fast = random_vec(n, 400 + static_cast<unsigned>(n), 0.1);
    auto w_ref = w_fast;
    const auto x = random_vec(n, 500 + static_cast<unsigned>(n));
    const double keep = 0.9997;
    const double g = -3.7e-3;
    const double norm_fast = k::axpy_leaky_norm(w_fast.data(), x.data(),
                                                keep, g, n);
    const double norm_ref = k::naive::axpy_leaky_norm(w_ref.data(), x.data(),
                                                      keep, g, n);
    // The element-wise updates are identical operations in both versions —
    // only the norm reduction is reassociated.
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(w_fast[i], w_ref[i]) << "n=" << n << " i=" << i;
    }
    EXPECT_NEAR(norm_fast, norm_ref,
                1e-12 * (norm_ref + static_cast<double>(n)))
        << "n=" << n;
  }
}

// The fused FxLMS pass must give the bits of the three kernels it
// replaces: axpy_leaky_norm, then dot(w, x, n) with the new weights and
// dot(h, x, m). n is the weight length, m the secondary-path length; the
// grid covers the engine's shapes (395/256, 246/96) and every tail class,
// plus a path longer than the weights (x then holds m values).
TEST(Kernels, AxpyLeakyNormDotsMatchesSeparateKernelsExactly) {
  struct Shape {
    std::size_t n, m;
  };
  std::vector<Shape> shapes;
  for (const std::size_t n : {1, 7, 8, 9, 96, 246, 256, 395, 1024}) {
    for (const std::size_t m : {std::size_t{1}, std::size_t{7},
                                std::size_t{96}, std::size_t{256}, n}) {
      if (m <= n) shapes.push_back({n, m});
    }
  }
  for (const std::size_t n : {1, 7, 96}) shapes.push_back({n, 256});
  for (const auto [n, m] : shapes) {
    const auto seed = static_cast<unsigned>(n * 1000 + m);
    auto w_fused = random_vec(n, 900 + seed, 0.1);
    auto w_ref = w_fused;
    const auto u = random_vec(n, 910 + seed);
    const auto x = random_vec(std::max(n, m), 920 + seed);
    const auto h = random_vec(m, 930 + seed, 0.3);
    const double keep = 0.9997;
    const double g = -3.7e-3;
    const k::AxpyDots got = k::axpy_leaky_norm_dots(
        w_fused.data(), u.data(), keep, g, n, x.data(), h.data(), m);
    const double norm2 =
        k::axpy_leaky_norm(w_ref.data(), u.data(), keep, g, n);
    ASSERT_EQ(got.norm2, norm2) << "n=" << n << " m=" << m;
    ASSERT_EQ(got.wx, k::dot(w_ref.data(), x.data(), n))
        << "n=" << n << " m=" << m;
    ASSERT_EQ(got.hx, k::dot(h.data(), x.data(), m))
        << "n=" << n << " m=" << m;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(w_fused[i], w_ref[i]) << "n=" << n << " m=" << m << " i=" << i;
    }
  }
}

TEST(Kernels, AxpyLeakyNormDotsMatchesNaive) {
  for (const std::size_t n : kSizes) {
    for (const std::size_t m : {std::size_t{0}, n / 2, n, n + 9}) {
      const auto seed = static_cast<unsigned>(n * 100 + m);
      auto w_fast = random_vec(n, 940 + seed, 0.1);
      auto w_ref = w_fast;
      const auto u = random_vec(n, 950 + seed);
      const auto x = random_vec(std::max(n, m), 960 + seed);
      const auto h = random_vec(m, 970 + seed);
      const auto fast = k::axpy_leaky_norm_dots(
          w_fast.data(), u.data(), 0.9997, -3.7e-3, n, x.data(), h.data(), m);
      const auto ref = k::naive::axpy_leaky_norm_dots(
          w_ref.data(), u.data(), 0.9997, -3.7e-3, n, x.data(), h.data(), m);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(w_fast[i], w_ref[i]) << "n=" << n << " m=" << m;
      }
      const auto tol = [&](double want, std::size_t len) {
        return 1e-12 * (std::abs(want) + static_cast<double>(len));
      };
      EXPECT_NEAR(fast.norm2, ref.norm2, tol(ref.norm2, n))
          << "n=" << n << " m=" << m;
      EXPECT_NEAR(fast.wx, ref.wx, tol(ref.wx, n)) << "n=" << n << " m=" << m;
      EXPECT_NEAR(fast.hx, ref.hx, tol(ref.hx, m)) << "n=" << n << " m=" << m;
    }
  }
}

TEST(Kernels, ScaledAccumulateMatchesNaiveExactly) {
  for (const std::size_t n : kSizes) {
    auto acc_fast = random_vec(n, 600 + static_cast<unsigned>(n));
    auto acc_ref = acc_fast;
    const auto x = random_vec(n, 700 + static_cast<unsigned>(n));
    k::scaled_accumulate(acc_fast.data(), x.data(), 0.37, n);
    k::naive::scaled_accumulate(acc_ref.data(), x.data(), 0.37, n);
    // Element-wise with no reduction: must be bit-identical.
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(acc_fast[i], acc_ref[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Kernels, CmulAccumulateMatchesNaive) {
  for (const std::size_t n : kSizes) {
    auto acc_fast = random_vec(2 * n, 800 + static_cast<unsigned>(n));
    auto acc_ref = acc_fast;
    const auto a = random_vec(2 * n, 810 + static_cast<unsigned>(n));
    const auto b = random_vec(2 * n, 820 + static_cast<unsigned>(n));
    k::cmul_accumulate(acc_fast.data(), a.data(), b.data(), n);
    k::naive::cmul_accumulate(acc_ref.data(), a.data(), b.data(), n);
    // Element-wise with no reduction: must be bit-identical.
    for (std::size_t i = 0; i < 2 * n; ++i) {
      EXPECT_EQ(acc_fast[i], acc_ref[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Kernels, CmulConjScaledMatchesNaive) {
  for (const std::size_t n : kSizes) {
    std::vector<double> out_fast(2 * n, -1.0);
    std::vector<double> out_ref(2 * n, -2.0);
    const auto a = random_vec(2 * n, 830 + static_cast<unsigned>(n));
    const auto b = random_vec(2 * n, 840 + static_cast<unsigned>(n));
    auto power = random_vec(n, 850 + static_cast<unsigned>(n));
    for (auto& p : power) p = p * p;  // powers are non-negative
    const double eps = 1e-8;
    k::cmul_conj_scaled(out_fast.data(), a.data(), b.data(), power.data(), eps,
                        n);
    k::naive::cmul_conj_scaled(out_ref.data(), a.data(), b.data(),
                               power.data(), eps, n);
    // Element-wise with no reduction: must be bit-identical.
    for (std::size_t i = 0; i < 2 * n; ++i) {
      EXPECT_EQ(out_fast[i], out_ref[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Kernels, MagsqAccumulateMatchesNaive) {
  for (const std::size_t n : kSizes) {
    auto acc_fast = random_vec(n, 860 + static_cast<unsigned>(n));
    auto acc_ref = acc_fast;
    const auto z = random_vec(2 * n, 870 + static_cast<unsigned>(n));
    k::magsq_accumulate(acc_fast.data(), z.data(), n);
    k::naive::magsq_accumulate(acc_ref.data(), z.data(), n);
    // Element-wise with no reduction: must be bit-identical.
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(acc_fast[i], acc_ref[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Kernels, WindowIntoComplexMatchesNaiveExactly) {
  for (const std::size_t n : kSizes) {
    std::vector<double> out_fast(2 * n, -1.0);
    std::vector<double> out_ref(2 * n, -2.0);
    const auto w = random_vec(n, 900 + static_cast<unsigned>(n));
    std::vector<float> x(n);
    Rng rng(910 + static_cast<unsigned>(n));
    for (auto& v : x) v = static_cast<float>(rng.gaussian());
    k::window_into_complex(out_fast.data(), w.data(), x.data(), n);
    k::naive::window_into_complex(out_ref.data(), w.data(), x.data(), n);
    // Element-wise with no reduction: must be bit-identical.
    for (std::size_t i = 0; i < 2 * n; ++i) {
      EXPECT_EQ(out_fast[i], out_ref[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Kernels, SurviveDenormalInputs) {
  // Leaky LMS decays weights toward the denormal range on quiet inputs;
  // the kernels must stay finite and agree with the reference there.
  const std::size_t n = 37;
  std::vector<double> a(n, std::numeric_limits<double>::denorm_min() * 3.0);
  std::vector<double> b(n, 4.9e-324);  // smallest positive denormal
  const double got = k::dot(a.data(), b.data(), n);
  const double want = k::naive::dot(a.data(), b.data(), n);
  EXPECT_TRUE(std::isfinite(got));
  EXPECT_DOUBLE_EQ(got, want);

  auto w = std::vector<double>(n, 1e-310);
  auto w_ref = w;
  const double norm = k::axpy_leaky_norm(w.data(), a.data(), 0.999, 1e-6, n);
  const double norm_ref =
      k::naive::axpy_leaky_norm(w_ref.data(), a.data(), 0.999, 1e-6, n);
  EXPECT_TRUE(std::isfinite(norm));
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(w[i], w_ref[i]);
  EXPECT_DOUBLE_EQ(norm, norm_ref);

  const auto fused = k::axpy_leaky_norm_dots(w.data(), a.data(), 0.999, 1e-6,
                                             n, b.data(), a.data(), n);
  const auto fused_ref = k::naive::axpy_leaky_norm_dots(
      w_ref.data(), a.data(), 0.999, 1e-6, n, b.data(), a.data(), n);
  EXPECT_TRUE(std::isfinite(fused.norm2));
  EXPECT_TRUE(std::isfinite(fused.wx));
  EXPECT_TRUE(std::isfinite(fused.hx));
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(w[i], w_ref[i]);
  EXPECT_DOUBLE_EQ(fused.norm2, fused_ref.norm2);
  EXPECT_DOUBLE_EQ(fused.wx, fused_ref.wx);
  EXPECT_DOUBLE_EQ(fused.hx, fused_ref.hx);
}

TEST(RingHistory, MatchesShiftRegisterAcrossWraps) {
  for (const std::size_t len : {1UL, 2UL, 3UL, 8UL, 17UL}) {
    dsp::RingHistory<double> ring(len);
    std::vector<double> ref(len, 0.0);  // newest-first shift register
    Rng rng(42);
    // >= 3 full wraps of the doubled buffer.
    for (std::size_t t = 0; t < 7 * len + 3; ++t) {
      const double v = rng.gaussian();
      for (std::size_t i = len - 1; i > 0; --i) ref[i] = ref[i - 1];
      ref[0] = v;
      ring.push(v);
      ASSERT_EQ(ring.size(), len);
      EXPECT_EQ(ring.newest(), ref.front()) << "len=" << len << " t=" << t;
      EXPECT_EQ(ring.oldest(), ref.back()) << "len=" << len << " t=" << t;
      const auto win = ring.window();
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(win[i], ref[i]) << "len=" << len << " t=" << t
                                  << " i=" << i;
      }
    }
  }
}

TEST(FrameHistory, MatchesShiftRegisterAcrossWraps) {
  for (const std::size_t len : {1UL, 2UL, 5UL, 16UL}) {
    dsp::FrameHistory<float> frame(len);
    std::vector<float> ref(len, 0.0f);  // oldest-first shift register
    Rng rng(7);
    for (std::size_t t = 0; t < 7 * len + 3; ++t) {
      const auto v = static_cast<float>(rng.gaussian());
      for (std::size_t i = 0; i + 1 < len; ++i) ref[i] = ref[i + 1];
      ref[len - 1] = v;
      frame.push(v);
      EXPECT_EQ(frame.newest(), ref.back()) << "len=" << len << " t=" << t;
      EXPECT_EQ(frame.oldest(), ref.front()) << "len=" << len << " t=" << t;
      const auto win = frame.window();
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(win[i], ref[i]) << "len=" << len << " t=" << t
                                  << " i=" << i;
      }
    }
  }
}

TEST(FirFilterBlock, MatchesScalarPath) {
  // 2078 taps: the blocks cut across the partitioned tail's block edges.
  for (const std::size_t taps : {1UL, 7UL, 64UL, 129UL, 2078UL}) {
    const auto h = random_vec(taps, 900 + static_cast<unsigned>(taps), 0.2);
    dsp::FirFilter scalar_f(h);
    dsp::FirFilter block_f(h);
    Rng rng(1234);
    // Blocks shorter than, equal to, and longer than the tap count, plus
    // empty (legal no-op).
    const std::size_t blocks[] = {3, taps, 1, 0, 2 * taps + 5, 16};
    for (const std::size_t b : blocks) {
      Signal in(b), out_scalar(b), out_block(b);
      for (auto& v : in) v = static_cast<Sample>(rng.gaussian(0.3));
      for (std::size_t i = 0; i < b; ++i) out_scalar[i] = scalar_f.process(in[i]);
      block_f.process(in, out_block);
      for (std::size_t i = 0; i < b; ++i) {
        EXPECT_EQ(out_block[i], out_scalar[i])
            << "taps=" << taps << " block=" << b << " i=" << i;
      }
    }
    // Histories must agree afterwards too: continue scalar on both.
    for (int t = 0; t < 32; ++t) {
      const auto x = static_cast<Sample>(rng.gaussian(0.3));
      EXPECT_EQ(scalar_f.process(x), block_f.process(x));
    }
  }
}

TEST(FirFilterBlock, InPlaceAliasingIsSafe) {
  const auto h = random_vec(33, 77, 0.2);
  dsp::FirFilter f_alias(h);
  dsp::FirFilter f_ref(h);
  Rng rng(5);
  Signal buf(100), in_copy(100), out_ref(100);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<Sample>(rng.gaussian(0.3));
    in_copy[i] = buf[i];
  }
  f_alias.process(buf, buf);  // in == out
  f_ref.process(in_copy, out_ref);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(buf[i], out_ref[i]) << "i=" << i;
  }
}

}  // namespace
