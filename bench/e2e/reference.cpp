#include "reference.hpp"

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <thread>

namespace e2e {
namespace {

// A bank is 64 filters of 2048 double taps (1 MB, about what one lane's
// tenants keep hot), and one call is 2000 dot products across it: the
// shape of the plant FIR and LANC filters that fill a fleet block.
constexpr std::size_t kTaps = 2048;
constexpr std::size_t kFilters = 64;
constexpr std::size_t kDots = 2000;

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

__attribute__((noinline)) double kernel(const std::vector<double>& bank) {
  double sum = 0.0;
  for (std::size_t r = 0; r < kDots; ++r) {
    const double* h = bank.data() + (r % kFilters) * kTaps;
    const double* x = bank.data() + ((r * 7 + 3) % kFilters) * kTaps;
    double acc = 0.0;
    for (std::size_t k = 0; k < kTaps; ++k) acc += h[k] * x[k];
    sum += acc;
  }
  return sum;
}

struct Timed {
  double cpu_s = 0.0;
  double result = 0.0;
};

Timed timed_kernel(const std::vector<double>& bank) {
  const double c0 = thread_cpu_seconds();
  const double result = kernel(bank);
  return {thread_cpu_seconds() - c0, result};
}

}  // namespace

HostSpeed::HostSpeed(std::size_t threads)
    : threads_(std::max<std::size_t>(1, threads)), banks_(threads_) {
  std::uint32_t state = 12345;
  for (auto& bank : banks_) {
    bank.resize(kTaps * kFilters);
    for (double& v : bank) {
      state = state * 1664525u + 1013904223u;  // values in [-1, 1)
      v = static_cast<double>(state >> 8) / 8388608.0 - 1.0;
    }
  }
  last_s_ = probe();
}

double HostSpeed::end_interval() {
  const double before_s = last_s_;
  last_s_ = probe();
  return 0.5 * (before_s + last_s_) / kNominalSeconds;
}

double HostSpeed::probe() {
  double total_s = 0.0;
  constexpr int kCalls = 2;
  for (int call = 0; call < kCalls; ++call) {
    std::vector<Timed> timed(threads_);
    {
      // jthreads join when the scope ends, on an exception too.
      std::vector<std::jthread> pool;
      for (std::size_t t = 1; t < threads_; ++t) {
        pool.emplace_back([&, t] { timed[t] = timed_kernel(banks_[t]); });
      }
      timed[0] = timed_kernel(banks_[0]);
    }
    double cpu_s = 0.0;
    for (const Timed& t : timed) {
      cpu_s += t.cpu_s;
      sink_ += t.result;
    }
    samples_.push_back(cpu_s / static_cast<double>(threads_));
    total_s += samples_.back();
  }
  return total_s / kCalls;
}

double HostSpeed::median_seconds() const {
  std::vector<double> v = samples_;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  return 0.5 * (*mid + *std::max_element(v.begin(), mid));
}

}  // namespace e2e
