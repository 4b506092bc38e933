#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>

#include "common/math_utils.hpp"
#include "common/rt_annotations.hpp"
#include "common/types.hpp"
#include "sim/system.hpp"

namespace mute::sim {

/// The never-louder-than-passive contract, the one place that scores it:
/// the residual's energy over a kNeverLouderWindowS window must stay
/// within kNeverLouderMarginDb of the disturbance's over that window. The
/// fleet, the chaos soak, the fault benches and their tests all read it
/// from here (DESIGN.md §14).
inline constexpr double kNeverLouderWindowS = 0.25;
inline constexpr double kNeverLouderMarginDb = 3.0;

/// The contract's window in samples at `fs` (at least one).
inline std::size_t never_louder_window(double fs) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(kNeverLouderWindowS * fs));
}

/// One window's score: residual energy re disturbance energy, dB
/// (negative = quieter than passive).
inline double excess_db(double res_energy, double dist_energy) {
  return power_to_db(res_energy / std::max(dist_energy, 1e-20));
}

/// excess_db of a recorded run over [t0, t1) seconds.
inline double window_db(const SystemResult& r, double t0, double t1) {
  const auto i0 = static_cast<std::size_t>(t0 * r.sample_rate);
  const auto i1 = static_cast<std::size_t>(t1 * r.sample_rate);
  double num = 0.0, den = 0.0;
  for (std::size_t i = i0; i < i1 && i < r.residual.size(); ++i) {
    num += static_cast<double>(r.residual[i]) *
           static_cast<double>(r.residual[i]);
    den += static_cast<double>(r.disturbance[i]) *
           static_cast<double>(r.disturbance[i]);
  }
  return excess_db(num, den);
}

/// Streaming never-louder meter over non-overlapping windows, the
/// Muter pattern: one element owns the window state and counts as samples
/// arrive, allocation-free. Windows where the disturbance is silent (mean
/// power <= 1e-12: power-up lead-in, calibration) are skipped, and so are
/// windows that end inside the first `grace` samples (a cold-started
/// canceller's convergence transient).
class NeverLouderMeter {
 public:
  NeverLouderMeter() = default;
  /// `window` >= 1 samples (never_louder_window) per scored window.
  NeverLouderMeter(std::size_t window, std::size_t grace)
      : window_(window), grace_(grace) {}

  MUTE_RT_SAFE void push(double residual, double disturbance) {
    res_ += residual * residual;
    dist_ += disturbance * disturbance;
    ++pos_;
    ++samples_;
    if (pos_ < window_) return;
    if (dist_ / static_cast<double>(window_) > 1e-12 && samples_ >= grace_) {
      const double db = excess_db(res_, dist_);
      ++windows_;
      if (db > worst_db_) {
        worst_db_ = db;
        worst_end_ = samples_;
      }
    }
    pos_ = 0;
    res_ = 0.0;
    dist_ = 0.0;
  }

  /// Loudest scored window, dB re passive (-inf before the first).
  double worst_db() const { return worst_db_; }
  /// Samples pushed when the loudest window ended (0 before the first).
  std::size_t worst_end() const { return worst_end_; }
  /// Windows scored (silent and grace windows are not).
  std::size_t windows() const { return windows_; }
  /// Samples pushed.
  std::size_t samples() const { return samples_; }

 private:
  std::size_t window_ = 1;
  std::size_t grace_ = 0;
  std::size_t pos_ = 0;
  std::size_t samples_ = 0;
  double res_ = 0.0;
  double dist_ = 0.0;
  double worst_db_ = -std::numeric_limits<double>::infinity();
  std::size_t worst_end_ = 0;
  std::size_t windows_ = 0;
};

/// Never-louder meter over windows that overlap by half: two
/// NeverLouderMeters, the second fed from half a window later with its
/// grace shifted by as much, so both skip the windows that end inside the
/// same first `grace` samples. A burst that straddles one phase's window
/// boundary falls whole into the other phase's window. Its worst window is
/// the louder of the two phases' (the earlier one on a tie); for an even
/// window (4000 samples at 16 kHz) that is a scan with a hop of half a
/// window. Allocation-free.
class HalfOverlapMeter {
 public:
  HalfOverlapMeter() = default;
  HalfOverlapMeter(std::size_t window, std::size_t grace)
      : half_(window / 2),
        early_(window, grace),
        late_(window, grace > half_ ? grace - half_ : 0) {}

  MUTE_RT_SAFE void push(double residual, double disturbance) {
    early_.push(residual, disturbance);
    if (early_.samples() > half_) late_.push(residual, disturbance);
  }

  /// Loudest scored window of either phase, dB re passive (-inf before the
  /// first).
  double worst_db() const {
    return late_wins() ? late_.worst_db() : early_.worst_db();
  }
  /// Samples pushed when the loudest window ended (0 before the first).
  std::size_t worst_end() const {
    return late_wins() ? late_.worst_end() + half_ : early_.worst_end();
  }
  /// Windows scored over both phases.
  std::size_t windows() const { return early_.windows() + late_.windows(); }
  /// Samples pushed.
  std::size_t samples() const { return early_.samples(); }

 private:
  // A phase with no scored window reads -inf.
  bool late_wins() const {
    return late_.worst_db() > early_.worst_db() ||
           (late_.windows() > 0 && late_.worst_db() == early_.worst_db() &&
            late_.worst_end() + half_ < early_.worst_end());
  }

  std::size_t half_ = 0;
  NeverLouderMeter early_;
  NeverLouderMeter late_;
};

/// Loudest window of a recorded span.
struct WorstWindow {
  double excess_db = -std::numeric_limits<double>::infinity();
  std::size_t start = 0;    // first sample of the loudest window
  std::size_t windows = 0;  // windows scored
};

/// Score `residual` vs `disturbance` from sample `first` on with a
/// HalfOverlapMeter and no grace.
inline WorstWindow worst_half_overlapping_window(const Signal& residual,
                                                 const Signal& disturbance,
                                                 std::size_t window,
                                                 std::size_t first) {
  HalfOverlapMeter meter(window, 0);
  for (std::size_t i = first; i < residual.size(); ++i) {
    meter.push(static_cast<double>(residual[i]),
               static_cast<double>(disturbance[i]));
  }
  WorstWindow worst;
  worst.windows = meter.windows();
  if (worst.windows > 0) {
    worst.excess_db = meter.worst_db();
    worst.start = first + meter.worst_end() - window;
  }
  return worst;
}

}  // namespace mute::sim
