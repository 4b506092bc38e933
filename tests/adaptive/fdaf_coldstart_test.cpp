// BlockFdaf regression coverage for two runtime-readiness bugs:
//
//  1. Cold-start divergence: the per-bin power EMA started at zero, so the
//     first blocks normalized the gradient by epsilon (1e-8) alone and a
//     loud first block exploded the initial weight step. The estimate is
//     now seeded from the first block's own per-bin power.
//  2. Per-block heap allocations: xf/yf/ef/grad spectra were constructed
//     on every step_block call; they are now preallocated members and the
//     path is MUTE_RT_SAFE.
//
// Plus the weights() round-trip and the gradient constraint's zero
// circular tail.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "adaptive/fdaf.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "dsp/fir_filter.hpp"

namespace mute::adaptive {
namespace {

// A plant with energy spread over a couple hundred taps.
std::vector<double> make_plant(std::size_t taps, unsigned seed) {
  Rng rng(seed);
  std::vector<double> h(taps);
  for (std::size_t i = 0; i < taps; ++i) {
    const double decay = std::exp(-static_cast<double>(i) / 40.0);
    h[i] = rng.gaussian(0.5) * decay;
  }
  return h;
}

Signal run_plant(const std::vector<double>& h, const Signal& x) {
  dsp::FirFilter f(h);
  return f.filter(x);
}

TEST(BlockFdafColdStart, LoudFirstBlockDoesNotDiverge) {
  // Drive with a *loud* signal from sample zero. With the zero-seeded EMA
  // the first gradient was scaled by ~|X|^2/epsilon ~ 1e+10 and the error
  // blew up past any plant energy; with power seeding the first update is
  // a sane normalized step and the error stays bounded by the input scale.
  BlockFdaf::Options opts;
  opts.taps = 128;
  BlockFdaf fdaf(opts);
  const std::size_t block = fdaf.block_size();

  const auto h = make_plant(96, 41);
  Rng rng(42);
  Signal x(block * 8);
  for (auto& v : x) v = static_cast<Sample>(rng.gaussian(30.0));  // loud!
  const auto d = run_plant(h, x);

  const auto err = fdaf.identify(x, d);
  double peak_in = 0.0, peak_err = 0.0;
  for (const auto v : x) peak_in = std::max(peak_in, std::abs(double(v)));
  for (const auto v : err) {
    ASSERT_TRUE(std::isfinite(v));
    peak_err = std::max(peak_err, std::abs(double(v)));
  }
  // Pre-fix the first adapted block's error overshot the input by orders
  // of magnitude. Post-fix it stays within the plant's own gain envelope.
  double plant_gain = 0.0;
  for (double c : h) plant_gain += std::abs(c);
  EXPECT_LT(peak_err, 2.0 * plant_gain * peak_in);

  // And it still converges: last-quarter error well below first-quarter.
  const std::size_t q = err.size() / 4;
  double head = 0.0, tail = 0.0;
  for (std::size_t i = 0; i < q; ++i) head += double(err[i]) * double(err[i]);
  for (std::size_t i = err.size() - q; i < err.size(); ++i)
    tail += double(err[i]) * double(err[i]);
  EXPECT_LT(tail, 0.05 * head);
}

TEST(BlockFdafColdStart, FirstStepMatchesPrePrimedFilter) {
  // Seeding from the first block must behave like a filter whose EMA had
  // already settled on that block's spectrum: run one copy cold and one
  // copy that saw the same block before reset of everything except power.
  BlockFdaf::Options opts;
  opts.taps = 64;
  BlockFdaf cold(opts);
  const std::size_t block = cold.block_size();

  Rng rng(7);
  Signal x(block), d(block), e(block);
  for (auto& v : x) v = static_cast<Sample>(rng.gaussian());
  for (std::size_t i = 0; i < block; ++i)
    d[i] = static_cast<Sample>(0.5 * double(x[i]));

  cold.step_block(x, d, e);
  const auto w = cold.weights();
  double wmax = 0.0;
  for (double v : w) wmax = std::max(wmax, std::abs(v));
  // The normalized first step is O(mu): no epsilon-division explosion.
  EXPECT_LT(wmax, 1.0);
  EXPECT_GT(wmax, 1e-4);  // ...but it did actually adapt.
}

TEST(BlockFdafRt, StepBlockIsAllocationFreeAfterConstruction) {
  BlockFdaf::Options opts;
  opts.taps = 256;
  BlockFdaf fdaf(opts);
  const std::size_t block = fdaf.block_size();

  Rng rng(9);
  Signal x(block), d(block), e(block);
  auto fill = [&] {
    for (std::size_t i = 0; i < block; ++i) {
      x[i] = static_cast<Sample>(rng.gaussian());
      d[i] = static_cast<Sample>(rng.gaussian(0.3));
    }
  };
  // Warm one block outside the guard (first-touch paging etc.).
  fill();
  fdaf.step_block(x, d, e);

  RtAllocationGuard guard(RtAllocationGuard::Mode::kCount, "fdaf-step");
  for (int b = 0; b < 8; ++b) {
    fill();
    fdaf.step_block(x, d, e);
  }
  if (RtAllocationGuard::interposition_enabled()) {
    EXPECT_EQ(guard.allocations_since_entry(), 0u);
  }
}

TEST(BlockFdafWeights, RoundTripRecoversPlant) {
  // After convergence on a plant shorter than the filter, weights() must
  // return the plant coefficients (head) and near-zeros past its length.
  BlockFdaf::Options opts;
  opts.taps = 128;
  opts.mu = 0.5;
  BlockFdaf fdaf(opts);
  const std::size_t block = fdaf.block_size();

  const std::size_t plant_taps = 48;
  const auto h = make_plant(plant_taps, 11);
  Rng rng(12);
  Signal x(block * 64);
  for (auto& v : x) v = static_cast<Sample>(rng.gaussian());
  const auto d = run_plant(h, x);
  fdaf.identify(x, d);

  const auto w = fdaf.weights();
  ASSERT_EQ(w.size(), fdaf.tap_count());
  for (std::size_t i = 0; i < plant_taps; ++i) {
    EXPECT_NEAR(w[i], h[i], 0.02) << "tap " << i;
  }
  for (std::size_t i = plant_taps; i < w.size(); ++i) {
    EXPECT_NEAR(w[i], 0.0, 0.02) << "tap " << i;
  }
}

TEST(BlockFdafConstraint, CircularTailStaysZeroUnderGradientNoise) {
  // The gradient constraint zeroes the acausal (wraparound) half of every
  // weight update, so the filter's circular response stays identically
  // zero there. Observation noise on the desired signal keeps the error,
  // and so the gradient noise, alive for the whole run; the acausal mass
  // of the full circular response must still be round-trip noise only.
  const std::size_t plant_taps = 24;
  const auto h = make_plant(plant_taps, 21);

  BlockFdaf::Options opts;
  opts.taps = 64;
  BlockFdaf fdaf(opts);
  Rng local(22);
  Signal x(fdaf.block_size() * 96);
  for (auto& v : x) v = static_cast<Sample>(local.gaussian());
  auto d = run_plant(h, x);
  for (auto& v : d) v += static_cast<Sample>(local.gaussian(0.1));
  fdaf.identify(x, d);
  const auto w = fdaf.weights_full();
  double tail = 0.0;
  for (std::size_t i = fdaf.block_size(); i < w.size(); ++i) {
    tail += w[i] * w[i];
  }
  // Zero up to IFFT/FFT round-trip noise.
  EXPECT_LT(tail, 1e-12);
}

}  // namespace
}  // namespace mute::adaptive
