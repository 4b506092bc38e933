#include "core/relay_select.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace mute::core {

namespace {

// Storage for a round over `relay_count` relays; rank_round() refills it
// without reallocating.
RelaySelection sized_selection(std::size_t relay_count) {
  RelaySelection out;
  out.all.resize(relay_count);
  out.ranked.reserve(relay_count);
  return out;
}

// Turn a round's per-relay peaks into `out`: every measurement in relay
// order, then every confident, positive-lookahead candidate by descending
// lookahead (relay index breaks ties). The winner is the head of the
// ranking, the rest are warm standbys.
void rank_round(std::span<const GccPhatPeak> peaks,
                const RelaySelectorOptions& options, RelaySelection& out) {
  for (std::size_t i = 0; i < peaks.size(); ++i) {
    out.all[i].relay_index = i;
    out.all[i].lookahead_s = peaks[i].lag_s;  // positive: ear lags the relay
    out.all[i].confidence = peaks[i].value;
  }
  out.ranked = out.all;  // within the capacity reserved for every relay
  std::erase_if(out.ranked, [&](const RelayMeasurement& m) {
    return m.confidence < options.min_confidence ||
           m.lookahead_s < options.min_lookahead_s;
  });
  std::sort(out.ranked.begin(), out.ranked.end(),
            [](const RelayMeasurement& a, const RelayMeasurement& b) {
              if (a.lookahead_s != b.lookahead_s) {
                return a.lookahead_s > b.lookahead_s;
              }
              return a.relay_index < b.relay_index;  // deterministic ties
            });
  out.chosen = std::nullopt;
  if (!out.ranked.empty()) out.chosen = out.ranked.front();
}

std::size_t period_samples(double sample_rate, double period_s) {
  return static_cast<std::size_t>(period_s * sample_rate);
}

}  // namespace

RelaySelection select_relay(std::span<const Signal> relay_streams,
                            std::span<const Sample> error_mic_stream,
                            double sample_rate,
                            const RelaySelectorOptions& options) {
  ensure(!relay_streams.empty(), "need at least one relay stream");
  GccPhatPlan plan(relay_streams.size(), error_mic_stream.size(), sample_rate,
                   options.max_lag_s);
  std::copy(error_mic_stream.begin(), error_mic_stream.end(),
            plan.error_record().begin());
  for (std::size_t i = 0; i < relay_streams.size(); ++i) {
    ensure(relay_streams[i].size() == error_mic_stream.size(),
           "relay and error-mic records must be aligned");
    std::copy(relay_streams[i].begin(), relay_streams[i].end(),
              plan.relay_record(i).begin());
  }
  plan.run();
  RelaySelection out = sized_selection(relay_streams.size());
  rank_round(plan.peaks(), options, out);
  return out;
}

RelaySelector::RelaySelector(std::size_t relay_count, double sample_rate,
                             double period_s, RelaySelectorOptions options)
    : period_samples_(period_samples(sample_rate, period_s)),
      opts_(options),
      plan_(relay_count, period_samples_, sample_rate, options.max_lag_s),
      selection_(sized_selection(relay_count)) {
  ensure(period_samples_ >= 256, "selection period too short");
}

void RelaySelector::reserve_round_scratch(double sample_rate,
                                          double period_s) {
  GccPhatPlan::reserve_thread_scratch(period_samples(sample_rate, period_s));
}

double standby_score(const RelayMeasurement& m, double needed_lookahead_s) {
  ensure(needed_lookahead_s > 0.0, "needed lookahead must be positive");
  if (m.lookahead_s <= 0.0) return 0.0;
  const double usable = std::min(1.0, m.lookahead_s / needed_lookahead_s);
  return m.confidence * usable;
}

RelaySelectionRef RelaySelector::push(std::span<const Sample> relay_samples,
                                      Sample error_mic_sample) {
  ensure(relay_samples.size() == plan_.relay_count(),
         "one sample per relay required");
  MUTE_RT_SCOPE("RelaySelector::push");
  for (std::size_t i = 0; i < relay_samples.size(); ++i) {
    plan_.relay_record(i)[filled_] = relay_samples[i];
  }
  plan_.error_record()[filled_] = error_mic_sample;
  if (++filled_ < period_samples_) return {};

  filled_ = 0;
  plan_.run();
  rank_round(plan_.peaks(), opts_, selection_);
  has_selection_ = true;
  return RelaySelectionRef(&selection_);
}

}  // namespace mute::core
