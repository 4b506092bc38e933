#pragma once

// Host-speed reference for the fleet-serving benchmark.
//
// The reference host is a shared VM whose per-core speed drifts with its
// neighbours' load, by 10-50% over seconds to minutes, for the fleet and a
// single-thread loop alike. Timings of one program taken minutes apart
// then differ by more than the changes the benchmark must resolve. So the
// benchmark probes a fixed kernel before and after each measured interval
// and scales the interval's figures to a host on which one kernel call
// takes kNominalSeconds of CPU time (README, "Host-speed scaling").
//
// The kernel runs on as many threads as the fleet has lanes, so that
// contention between cores slows it as it slows the fleet. Each thread is
// timed by its own CPU clock: a fleet thread that runs during a probe only
// time-slices with the kernel and does not change what the probe reads.
// The kernel is built as its own target with the benchmark's flags, so
// that no change to the library's build moves it.

#include <cstddef>
#include <vector>

namespace e2e {

class HostSpeed {
 public:
  /// CPU seconds of one kernel call per thread on the nominal host: about
  /// the median on the reference host over the runs that set the bounds.
  static constexpr double kNominalSeconds = 3.5e-3;

  /// Probes once: the start of the first interval.
  explicit HostSpeed(std::size_t threads);

  /// Probes again and returns the host factor of the interval since the
  /// previous probe: the mean of the two probes' call times over
  /// kNominalSeconds, above 1 when the host ran slower than nominal. To
  /// scale the interval's figures to the nominal host, divide a time by it
  /// and multiply a rate by it. Intervals are contiguous: each probe closes
  /// one and opens the next.
  double end_interval();

  /// Median call time (s) over every probe so far.
  double median_seconds() const;

 private:
  /// Runs the kernel twice on every thread at once; returns the mean
  /// per-thread CPU time of a call, and records each call's.
  double probe();

  std::size_t threads_;
  std::vector<std::vector<double>> banks_;  // one per thread
  std::vector<double> samples_;
  double last_s_ = 0.0;  // the latest probe
  double sink_ = 0.0;    // kernel results, kept so the work is not elided
};

}  // namespace e2e
