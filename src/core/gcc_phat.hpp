#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rt_annotations.hpp"
#include "common/types.hpp"

namespace mute::core {

/// Result of a GCC-PHAT cross-correlation between two recordings.
struct GccPhatResult {
  std::vector<double> lag_s;        // lag axis (seconds), negative..positive
  std::vector<double> correlation;  // PHAT-weighted correlation per lag
  double peak_lag_s = 0.0;          // argmax lag
  double peak_value = 0.0;          // correlation at the peak
};

/// Peak of one relay's correlation in a GccPhatPlan round.
struct GccPhatPeak {
  double lag_s = 0.0;  // positive: the error mic trails the relay
  double value = 0.0;  // PHAT correlation at the peak
};

/// Plan-based GCC-PHAT (Brandstein & Silverman): correlates R relay
/// records against one error-mic record of the same interval, every
/// record `record_len` samples long. The plan owns what lives from one
/// round to the next: the capture records, the correlation windows and
/// the peaks. The transform buffers are dead between rounds, so they are
/// one round scratch per thread, shared by every plan that runs on it:
/// the constructor grows the building thread's scratch, a thread that
/// runs rounds for plans built elsewhere grows its own with
/// reserve_thread_scratch(), and run() allocates nothing.
///
/// A round zero-pads each record to nfft = next_pow2(2 * record_len) and
/// spends ceil((R+1)/2) forward and ceil(R/2) inverse complex transforms,
/// against 2R and R for independent pairwise correlations:
///   - two real records share one forward transform (real and imaginary
///     part); the error mic rides with relay 0 when R is odd and is
///     transformed alone when R is even, so the relays pair up after it;
///   - the PHAT weight 1/sqrt(re^2 + im^2) is applied over the Hermitian
///     half-spectrum only;
///   - two relays' real correlations come back from the real and
///     imaginary parts of one inverse transform;
///   - only the +-max_lag window of each correlation is scanned.
/// An all-zero record has an exactly zero spectrum, so its correlation is
/// zero everywhere — whatever rounding its transform partner leaks in.
class GccPhatPlan {
 public:
  GccPhatPlan(std::size_t relay_count, std::size_t record_len,
              double sample_rate, double max_lag_s = 0.05);

  /// Capture storage, filled by the caller before run().
  std::span<Sample> error_record() { return record(0); }
  std::span<Sample> relay_record(std::size_t i) { return record(1 + i); }

  /// Correlate every relay record against the error record; results in
  /// peaks() and correlation(). Aborts (MUTE_ASSERT) when the calling
  /// thread's round scratch is too small for this plan.
  MUTE_RT_SAFE void run();

  /// Grow the calling thread's round scratch to cover plans of records up
  /// to `record_len` samples. Growth allocates on the global heap, so it
  /// must never run with a tenant arena installed (MUTE_ASSERT); a call
  /// that finds the scratch large enough does nothing.
  static void reserve_thread_scratch(std::size_t record_len);

  /// Per-relay peaks of the last run().
  std::span<const GccPhatPeak> peaks() const { return peaks_; }

  /// Relay `i`'s PHAT correlation of the last run() at lags
  /// -max_lag() .. +max_lag() samples.
  std::span<const double> correlation(std::size_t i) const {
    return {corr_.data() + i * window_, window_};
  }

  std::size_t relay_count() const { return peaks_.size(); }
  std::size_t max_lag() const { return max_lag_; }

 private:
  std::span<Sample> record(std::size_t k) {
    return {records_.data() + k * n_, n_};
  }
  void load_pair(std::span<Complex> work, std::size_t a, std::size_t b);
  void cross_pair(std::span<Complex> work, std::span<Complex> err_spec,
                  std::size_t first_relay) const;
  void scan(std::span<const Complex> work, std::size_t relay, bool imag_part);

  std::size_t n_;
  std::size_t nfft_;
  double fs_;
  std::size_t max_lag_;
  std::size_t window_;  // 2 * max_lag_ + 1
  std::vector<Sample> records_;  // error, relay 0, ..., relay R-1
  std::vector<bool> silent_;     // per record: all samples zero
  std::vector<double> corr_;     // relay-major correlation windows
  std::vector<GccPhatPeak> peaks_;
};

/// One-shot GCC-PHAT of two recordings, the paper's Section 4.2 tool for
/// deciding whether the wirelessly forwarded signal leads the acoustic
/// arrival. Builds a one-relay GccPhatPlan.
///
/// Convention: a *positive* peak lag means `delayed` is a delayed copy of
/// `reference` — i.e. the relay (pass it as `reference`) heard the sound
/// `peak_lag_s` seconds before the ear (pass its mic as `delayed`), so the
/// lookahead is positive and the relay is usable.
GccPhatResult gcc_phat(std::span<const Sample> reference,
                       std::span<const Sample> delayed, double sample_rate,
                       double max_lag_s = 0.05);

}  // namespace mute::core
