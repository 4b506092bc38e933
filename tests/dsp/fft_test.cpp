#include "dsp/fft.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "common/math_utils.hpp"
#include "common/rng.hpp"

namespace mute::dsp {
namespace {

TEST(Fft, ImpulseHasFlatSpectrum) {
  ComplexSignal x(64, Complex(0.0, 0.0));
  x[0] = Complex(1.0, 0.0);
  fft_inplace(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, DcSignalConcentratesInBinZero) {
  ComplexSignal x(32, Complex(2.0, 0.0));
  fft_inplace(x);
  EXPECT_NEAR(x[0].real(), 64.0, 1e-10);
  for (std::size_t k = 1; k < x.size(); ++k) {
    EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-10);
  }
}

TEST(Fft, SineConcentratesInMatchingBin) {
  const std::size_t n = 256;
  Signal x(n);
  const std::size_t bin = 17;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<Sample>(
        std::sin(kTwoPi * static_cast<double>(bin * i) / static_cast<double>(n)));
  }
  auto spec = fft_real(x);
  // Peak magnitude n/2 at the bin, symmetric mirror at n - bin.
  EXPECT_NEAR(std::abs(spec[bin]), n / 2.0, 1e-5);
  EXPECT_NEAR(std::abs(spec[n - bin]), n / 2.0, 1e-5);
  EXPECT_NEAR(std::abs(spec[bin + 3]), 0.0, 1e-5);
}

TEST(Fft, RoundTripIsIdentity) {
  Rng rng(7);
  ComplexSignal x(128);
  for (auto& v : x) v = Complex(rng.gaussian(), rng.gaussian());
  ComplexSignal y = x;
  fft_inplace(y);
  ifft_inplace(y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-10);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-10);
  }
}

TEST(Fft, LinearityHolds) {
  Rng rng(3);
  ComplexSignal a(64), b(64), sum(64);
  for (std::size_t i = 0; i < 64; ++i) {
    a[i] = Complex(rng.gaussian(), rng.gaussian());
    b[i] = Complex(rng.gaussian(), rng.gaussian());
    sum[i] = a[i] + 2.0 * b[i];
  }
  fft_inplace(a);
  fft_inplace(b);
  fft_inplace(sum);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(std::abs(sum[i] - (a[i] + 2.0 * b[i])), 0.0, 1e-9);
  }
}

TEST(Fft, ParsevalEnergyConservation) {
  Rng rng(11);
  ComplexSignal x(512);
  double time_energy = 0.0;
  for (auto& v : x) {
    v = Complex(rng.gaussian(), 0.0);
    time_energy += std::norm(v);
  }
  fft_inplace(x);
  double freq_energy = 0.0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(x.size()), time_energy,
              1e-6 * time_energy);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  ComplexSignal x(100);
  EXPECT_THROW(fft_inplace(x), PreconditionError);
}

TEST(Fft, ZeroPadsToRequestedLength) {
  Signal x(10, 1.0f);
  auto spec = fft_real(x, 64);
  EXPECT_EQ(spec.size(), 64u);
  EXPECT_NEAR(spec[0].real(), 10.0, 1e-9);
}

TEST(Fft, RealSpectrumIsConjugateSymmetric) {
  Rng rng(5);
  Signal x(128);
  for (auto& v : x) v = static_cast<Sample>(rng.gaussian());
  auto spec = fft_real(x);
  for (std::size_t k = 1; k < 64; ++k) {
    EXPECT_NEAR(spec[k].real(), spec[128 - k].real(), 1e-6);
    EXPECT_NEAR(spec[k].imag(), -spec[128 - k].imag(), 1e-6);
  }
}

TEST(Fft, IfftRealRecoversRealSignal) {
  Rng rng(9);
  Signal x(64);
  for (auto& v : x) v = static_cast<Sample>(rng.gaussian());
  auto spec = fft_real(x);
  auto back = ifft_real(spec);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-5);
  }
}

TEST(Fft, BinFrequencyMapsCorrectly) {
  EXPECT_DOUBLE_EQ(bin_frequency(0, 1024, 16000.0), 0.0);
  EXPECT_DOUBLE_EQ(bin_frequency(512, 1024, 16000.0), 8000.0);
  EXPECT_NEAR(bin_frequency(64, 1024, 16000.0), 1000.0, 1e-12);
}

// The plain radix-2 DIT the library's transform must match bit for bit:
// Gold-Rader bit reversal, then one stage at a time with one butterfly per
// pair, on twiddles cos/sin(-2 pi k / len) up to 65536 points and on the
// twiddle recurrence past that.
void reference_fft(ComplexSignal& x, bool inverse) {
  const std::size_t n = x.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  auto* d = reinterpret_cast<double*>(x.data());
  const double sign = inverse ? -1.0 : 1.0;
  std::vector<double> wr, wi;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    wr.assign(half, 1.0);
    wi.assign(half, 0.0);
    if (n <= 65536) {
      const double angle = -kTwoPi / static_cast<double>(len);
      for (std::size_t k = 0; k < half; ++k) {
        wr[k] = std::cos(angle * static_cast<double>(k));
        wi[k] = sign * std::sin(angle * static_cast<double>(k));
      }
    } else {
      const double angle = sign * -kTwoPi / static_cast<double>(len);
      const double wr0 = std::cos(angle), wi0 = std::sin(angle);
      for (std::size_t k = 1; k < half; ++k) {
        wr[k] = wr[k - 1] * wr0 - wi[k - 1] * wi0;
        wi[k] = wr[k - 1] * wi0 + wi[k - 1] * wr0;
      }
    }
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        double* pa = d + 2 * (i + k);
        double* pb = d + 2 * (i + k + half);
        const double vr = pb[0] * wr[k] - pb[1] * wi[k];
        const double vi = pb[0] * wi[k] + pb[1] * wr[k];
        const double ur = pa[0], ui = pa[1];
        pa[0] = ur + vr;
        pa[1] = ui + vi;
        pb[0] = ur - vr;
        pb[1] = ui - vi;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& c : x) c *= inv_n;
  }
}

// Index of the first entry whose bytes differ, or -1.
long first_mismatch(const ComplexSignal& a, const ComplexSignal& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(Complex)) != 0) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

enum class Input { kGaussian, kFirstHalf, kSignedZeros, kAllZeros, kSubnormal };

ComplexSignal make_input(std::size_t n, Input kind, Rng& rng) {
  ComplexSignal x(n);
  for (std::size_t i = 0; i < n; ++i) {
    double re = rng.gaussian(), im = rng.gaussian();
    switch (kind) {
      case Input::kGaussian:
        break;
      case Input::kFirstHalf:  // GccPhatPlan's zero-padded record
        if (n > 1 && i >= n / 2) re = im = 0.0;
        break;
      case Input::kSignedZeros:  // exact zeros of both signs among values
        if (i % 3 == 0) re = std::copysign(0.0, re);
        if (i % 4 == 1) im = std::copysign(0.0, im);
        if (i % 5 == 2) re = im = -0.0;
        break;
      case Input::kAllZeros:  // a silent record: the zero signs survive
        re = std::copysign(0.0, re);
        im = std::copysign(0.0, im);
        break;
      case Input::kSubnormal:
        re *= 1e-310;
        im *= std::numeric_limits<double>::denorm_min() * 1e3;
        break;
    }
    x[i] = Complex(re, im);
  }
  return x;
}

TEST(Fft, BitIdenticalToRadix2Reference) {
  Rng rng(19);
  for (std::size_t n = 1; n <= 131072; n <<= 1) {
    for (const Input kind :
         {Input::kGaussian, Input::kFirstHalf, Input::kSignedZeros,
          Input::kAllZeros, Input::kSubnormal}) {
      for (const bool inverse : {false, true}) {
        const ComplexSignal x = make_input(n, kind, rng);
        ComplexSignal got = x, want = x;
        if (inverse) {
          ifft_inplace(got);
        } else {
          fft_inplace(got);
        }
        reference_fft(want, inverse);
        EXPECT_EQ(first_mismatch(got, want), -1)
            << "n=" << n << " input=" << static_cast<int>(kind)
            << (inverse ? " inverse" : " forward");
      }
    }
  }
}

TEST(Fft, TransformDoesNotAllocate) {
  Rng rng(23);
  ComplexSignal x = make_input(32768, Input::kGaussian, rng);
  fft_inplace(x);  // first call builds the twiddle table
  RtAllocationGuard guard(RtAllocationGuard::Mode::kCount, "fft-32768");
  fft_inplace(x);
  ifft_inplace(x);
  if (RtAllocationGuard::interposition_enabled()) {
    EXPECT_EQ(guard.allocations_since_entry(), 0u);
  }
}

// Time-shift property: a circular shift multiplies the spectrum by a
// linear phase. Parameterized over several shifts.
class FftShiftTest : public ::testing::TestWithParam<int> {};

TEST_P(FftShiftTest, CircularShiftGivesLinearPhase) {
  const std::size_t n = 128;
  const int shift = GetParam();
  Rng rng(21);
  ComplexSignal x(n);
  for (auto& v : x) v = Complex(rng.gaussian(), 0.0);
  ComplexSignal shifted(n);
  for (std::size_t i = 0; i < n; ++i) {
    shifted[(i + shift) % n] = x[i];
  }
  fft_inplace(x);
  fft_inplace(shifted);
  for (std::size_t k = 0; k < n; ++k) {
    const Complex expected =
        x[k] * std::polar(1.0, -kTwoPi * static_cast<double>(k * shift) /
                                   static_cast<double>(n));
    EXPECT_NEAR(std::abs(shifted[k] - expected), 0.0, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Shifts, FftShiftTest,
                         ::testing::Values(1, 5, 17, 64, 127));

}  // namespace
}  // namespace mute::dsp
