#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/rt_annotations.hpp"
#include "common/types.hpp"
#include "core/gcc_phat.hpp"

namespace mute::core {

/// Lookahead measurement for one candidate relay.
struct RelayMeasurement {
  std::size_t relay_index = 0;
  double lookahead_s = 0.0;   // positive = relay leads the ear
  double confidence = 0.0;    // GCC-PHAT peak value
};

/// Outcome of a selection round.
struct RelaySelection {
  /// Chosen relay (largest positive lookahead), or nullopt when every
  /// relay lags the ear — the paper's "no relay selected" case, where the
  /// client must fall back to no cancellation and nudge the user.
  std::optional<RelayMeasurement> chosen;
  std::vector<RelayMeasurement> all;
  /// Warm-standby ranking: every confident, positive-lookahead relay in
  /// descending lookahead order (`ranked.front() == *chosen` when any
  /// qualify). The device keeps this list so a failed association can be
  /// handed to the runner-up instead of re-listening for a full period.
  std::vector<RelayMeasurement> ranked;
};

/// Options for the periodic relay-selection correlation (Section 4.2).
struct RelaySelectorOptions {
  double max_lag_s = 0.05;          // correlation search window
  double min_confidence = 0.05;     // reject spurious peaks
  double min_lookahead_s = 100e-6;  // require a usefully positive lead
};

/// Geometry/health-aware standby score: which rival earns the shadow
/// filter's adaptation budget. Confidence weights the measurement's
/// trustworthiness; lookahead is credited only up to `needed_lookahead_s`
/// (the lead at which the device's tap cap saturates — lead beyond it buys
/// no extra non-causal taps, so it must not outrank a more confident
/// measurement). Returns confidence * min(1, lookahead / needed);
/// non-positive lookahead scores 0.
double standby_score(const RelayMeasurement& m, double needed_lookahead_s);

/// Decide which relay (if any) offers positive lookahead by GCC-PHAT
/// correlating each relay's forwarded waveform against the error-mic
/// recording of the same interval. Builds the same GccPhatPlan a
/// RelaySelector owns.
RelaySelection select_relay(
    std::span<const Signal> relay_streams,
    std::span<const Sample> error_mic_stream, double sample_rate,
    const RelaySelectorOptions& options = {});

/// Read-only handle to a RelaySelector's stored selection, engaged when
/// one is available. It reads like std::optional<RelaySelection> but
/// copies nothing: the selection lives in the selector and is refilled in
/// place by the next round.
class RelaySelectionRef {
 public:
  RelaySelectionRef() = default;
  explicit RelaySelectionRef(const RelaySelection* selection)
      : selection_(selection) {}
  bool has_value() const { return selection_ != nullptr; }
  explicit operator bool() const { return has_value(); }
  const RelaySelection& operator*() const { return *selection_; }
  const RelaySelection* operator->() const { return selection_; }

 private:
  const RelaySelection* selection_ = nullptr;
};

/// Streaming wrapper that accumulates synchronized relay/error-mic audio
/// and re-runs selection every `period_s` (the paper correlates
/// periodically to track moving sources). Capture, transform and result
/// storage are sized at construction: push() never allocates.
class RelaySelector {
 public:
  RelaySelector(std::size_t relay_count, double sample_rate,
                double period_s = 0.5, RelaySelectorOptions options = {});

  /// Push one synchronized sample per relay plus the error-mic sample.
  /// Returns the new selection when this sample completes a period, an
  /// empty handle otherwise.
  MUTE_RT_SAFE RelaySelectionRef push(std::span<const Sample> relay_samples,
                                      Sample error_mic_sample);

  /// Most recent completed selection (empty before the first period).
  RelaySelectionRef current() const {
    return RelaySelectionRef(has_selection_ ? &selection_ : nullptr);
  }

  std::size_t relay_count() const { return plan_.relay_count(); }

  /// Grow the calling thread's GCC-PHAT round scratch for selectors of
  /// this rate and period (GccPhatPlan::reserve_thread_scratch). A thread
  /// that runs push() for selectors built on another thread calls this
  /// first, with no tenant arena installed.
  static void reserve_round_scratch(double sample_rate, double period_s);

 private:
  std::size_t period_samples_;
  RelaySelectorOptions opts_;
  GccPhatPlan plan_;
  std::size_t filled_ = 0;
  RelaySelection selection_;
  bool has_selection_ = false;
};

}  // namespace mute::core
