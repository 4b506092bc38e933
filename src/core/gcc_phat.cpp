#include "core/gcc_phat.hpp"

#include <algorithm>
#include <cmath>

#include "common/arena.hpp"
#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "dsp/fft.hpp"

namespace mute::core {

namespace {

constexpr std::size_t kNoRecord = static_cast<std::size_t>(-1);

// PHAT keeps only the phase of the cross-spectrum so reverberant magnitude
// structure cannot smear the peak; bins below this magnitude carry none.
constexpr double kPhatFloorSq = 1e-15 * 1e-15;

// The transform buffers of one round. Every round overwrites them before
// it reads them, so one copy per thread serves every plan the thread runs
// rounds for, whatever its relay count and record length.
struct RoundScratch {
  ComplexSignal work;      // nfft: forward, then inverse transform
  ComplexSignal err_spec;  // nfft / 2 + 1: error-mic half-spectrum
};

thread_local RoundScratch t_round_scratch;

std::size_t round_nfft(std::size_t record_len) {
  return next_pow2(2 * record_len);
}

}  // namespace

void GccPhatPlan::reserve_thread_scratch(std::size_t record_len) {
  const std::size_t nfft = round_nfft(record_len);
  RoundScratch& s = t_round_scratch;
  if (s.work.size() >= nfft) return;
  MUTE_ASSERT(!ScopedArenaAlloc::installed(),
              "GCC-PHAT round scratch must not grow inside a tenant arena");
  s.work.assign(nfft, Complex(0.0, 0.0));
  s.err_spec.assign(nfft / 2 + 1, Complex(0.0, 0.0));
}

GccPhatPlan::GccPhatPlan(std::size_t relay_count, std::size_t record_len,
                         double sample_rate, double max_lag_s)
    : n_(record_len), fs_(sample_rate) {
  ensure(relay_count >= 1, "need at least one relay record");
  ensure(record_len >= 64, "records too short for GCC-PHAT");
  ensure(sample_rate > 0, "sample rate must be positive");
  nfft_ = round_nfft(n_);
  max_lag_ = static_cast<std::size_t>(
      std::min<double>(max_lag_s * sample_rate, static_cast<double>(n_ - 1)));
  window_ = 2 * max_lag_ + 1;
  records_.assign((relay_count + 1) * n_, 0.0f);
  silent_.assign(relay_count + 1, true);
  corr_.assign(relay_count * window_, 0.0);
  peaks_.assign(relay_count, GccPhatPeak{});
  reserve_thread_scratch(n_);
}

// work = record a + i * record b (b may be kNoRecord), zero-padded.
void GccPhatPlan::load_pair(std::span<Complex> work, std::size_t a,
                            std::size_t b) {
  const Sample* xa = records_.data() + a * n_;
  const Sample* xb = b == kNoRecord ? nullptr : records_.data() + b * n_;
  bool loud_a = false;
  bool loud_b = false;
  for (std::size_t t = 0; t < n_; ++t) {
    const double re = xa[t];
    const double im = xb != nullptr ? static_cast<double>(xb[t]) : 0.0;
    loud_a |= re != 0.0;
    loud_b |= im != 0.0;
    work[t] = Complex(re, im);
  }
  std::fill(work.begin() + static_cast<std::ptrdiff_t>(n_), work.end(),
            Complex(0.0, 0.0));
  silent_[a] = !loud_a;
  if (b != kNoRecord) silent_[b] = !loud_b;
}

// One fused pass over the Hermitian half-spectrum of work = FFT(x + i y):
// split the two real records' spectra, PHAT-weight their cross-spectra
// against the error mic, and leave conj(V), V = Ca + i Cb, in work so one
// more *forward* transform yields ca in the real part and -cb in the
// imaginary part (the 1/nfft of the inverse is folded into the weight).
//   first_relay == 0 with R odd: x is the error mic (its spectrum is
//     stored in err_spec when later pairs read it, i.e. R > 1), y is
//     relay 0, and Cb = 0;
//   otherwise: x, y are relays first_relay and first_relay + 1, and the
//     error spectrum comes from err_spec.
void GccPhatPlan::cross_pair(std::span<Complex> work,
                             std::span<Complex> err_spec,
                             std::size_t first_relay) const {
  const bool error_pass = first_relay == 0 && peaks_.size() % 2 == 1;
  const bool store_error = error_pass && peaks_.size() > 1;
  const double inv_n = 1.0 / static_cast<double>(nfft_);
  const std::size_t mask = nfft_ - 1;
  auto* z = reinterpret_cast<double*>(work.data());
  auto* es = reinterpret_cast<double*>(err_spec.data());
  for (std::size_t k = 0; k <= nfft_ / 2; ++k) {
    const std::size_t kn = (nfft_ - k) & mask;
    const double zr = z[2 * k], zi = z[2 * k + 1];
    const double nr = z[2 * kn], ni = z[2 * kn + 1];
    // X = (Z[k] + conj Z[N-k]) / 2,  Y = (Z[k] - conj Z[N-k]) / 2i.
    const double xr = 0.5 * (zr + nr), xi = 0.5 * (zi - ni);
    const double yr = 0.5 * (zi + ni), yi = 0.5 * (nr - zr);
    double er, ei, ar, ai, br = 0.0, bi = 0.0;
    if (error_pass) {
      er = xr;
      ei = xi;
      if (store_error) {
        es[2 * k] = er;
        es[2 * k + 1] = ei;
      }
      ar = yr;
      ai = yi;
    } else {
      er = es[2 * k];
      ei = es[2 * k + 1];
      ar = xr;
      ai = xi;
      br = yr;
      bi = yi;
    }
    // Ca = E conj(Ra) / |E conj(Ra)|, likewise Cb.
    double car = er * ar + ei * ai, cai = ei * ar - er * ai;
    double m2 = car * car + cai * cai;
    double w = m2 > kPhatFloorSq ? inv_n / std::sqrt(m2) : 0.0;
    car *= w;
    cai *= w;
    double cbr = er * br + ei * bi, cbi = ei * br - er * bi;
    m2 = cbr * cbr + cbi * cbi;
    w = m2 > kPhatFloorSq ? inv_n / std::sqrt(m2) : 0.0;
    cbr *= w;
    cbi *= w;
    // conj(V[k]) and conj(V[N-k]) for V = Ca + i Cb, where V[N-k] =
    // conj Ca + i conj Cb because both correlations are real.
    z[2 * kn] = car + cbi;
    z[2 * kn + 1] = cai - cbr;
    z[2 * k] = car - cbi;
    z[2 * k + 1] = -cai - cbr;
  }
}

// Copy relay `relay`'s +-max_lag window out of work (real part, or the
// negated imaginary part) and locate its peak. A silent relay or error
// record correlates to exactly zero, not to its partner's rounding.
void GccPhatPlan::scan(std::span<const Complex> work, std::size_t relay,
                       bool imag_part) {
  const auto* z = reinterpret_cast<const double*>(work.data());
  const std::size_t part = imag_part ? 1 : 0;
  const double sign = silent_[0] || silent_[1 + relay] ? 0.0
                      : imag_part                      ? -1.0
                                                       : 1.0;
  double* c = corr_.data() + relay * window_;
  // Negative lags wrap to nfft - |lag|; lag 0..max_lag sit at 0..max_lag.
  for (std::size_t j = 0; j < max_lag_; ++j) {
    c[j] = sign * z[2 * (nfft_ - max_lag_ + j) + part];
  }
  for (std::size_t j = 0; j <= max_lag_; ++j) {
    c[max_lag_ + j] = sign * z[2 * j + part];
  }
  double best_v = -1.0;
  std::size_t best_j = 0;
  for (std::size_t j = 0; j < window_; ++j) {
    if (c[j] > best_v) {
      best_v = c[j];
      best_j = j;
    }
  }
  const auto lag = static_cast<std::ptrdiff_t>(best_j) -
                   static_cast<std::ptrdiff_t>(max_lag_);
  peaks_[relay].lag_s = static_cast<double>(lag) / fs_;
  peaks_[relay].value = best_v;
}

void GccPhatPlan::run() {
  // Bind the thread's scratch once per round, not per access: the helpers
  // below run inner loops over it.
  RoundScratch& s = t_round_scratch;
  MUTE_ASSERT(s.work.size() >= nfft_,
              "GCC-PHAT round scratch was never grown on this thread");
  const std::span<Complex> work(s.work.data(), nfft_);
  const std::span<Complex> err_spec(s.err_spec.data(), nfft_ / 2 + 1);
  const std::size_t relays = peaks_.size();
  std::size_t next = 0;
  if (relays % 2 == 1) {
    // Error mic + relay 0 in one forward transform; relay 0 alone in the
    // inverse.
    load_pair(work, 0, 1);
    mute::dsp::fft_inplace(work);
    cross_pair(work, err_spec, 0);
    mute::dsp::fft_inplace(work);
    scan(work, 0, false);
    next = 1;
  } else {
    load_pair(work, 0, kNoRecord);
    mute::dsp::fft_inplace(work);
    std::copy(work.begin(),
              work.begin() + static_cast<std::ptrdiff_t>(err_spec.size()),
              err_spec.begin());
  }
  for (; next < relays; next += 2) {
    load_pair(work, 1 + next, 2 + next);
    mute::dsp::fft_inplace(work);
    cross_pair(work, err_spec, next);
    mute::dsp::fft_inplace(work);
    scan(work, next, false);
    scan(work, next + 1, true);
  }
}

GccPhatResult gcc_phat(std::span<const Sample> reference,
                       std::span<const Sample> delayed, double sample_rate,
                       double max_lag_s) {
  ensure(reference.size() == delayed.size(), "records must be equal length");
  GccPhatPlan plan(1, reference.size(), sample_rate, max_lag_s);
  std::copy(reference.begin(), reference.end(), plan.relay_record(0).begin());
  std::copy(delayed.begin(), delayed.end(), plan.error_record().begin());
  plan.run();

  GccPhatResult out;
  const auto corr = plan.correlation(0);
  out.correlation.assign(corr.begin(), corr.end());
  out.lag_s.resize(corr.size());
  const auto max_lag = static_cast<std::ptrdiff_t>(plan.max_lag());
  for (std::size_t j = 0; j < corr.size(); ++j) {
    out.lag_s[j] =
        static_cast<double>(static_cast<std::ptrdiff_t>(j) - max_lag) /
        sample_rate;
  }
  out.peak_lag_s = plan.peaks()[0].lag_s;
  out.peak_value = plan.peaks()[0].value;
  return out;
}

}  // namespace mute::core
