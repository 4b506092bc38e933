#include "core/link_monitor.hpp"

#include <cmath>
#include <cstdint>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace mute::core {

namespace {

double tau_to_alpha(double tau_s, double sample_rate) {
  if (tau_s <= 0.0) return 1.0;
  return 1.0 - std::exp(-1.0 / (tau_s * sample_rate));
}

std::size_t hold_samples(double hold_s, double sample_rate) {
  const double n = std::ceil(hold_s * sample_rate);
  return n < 1.0 ? 1 : static_cast<std::size_t>(n);
}

}  // namespace

LinkMonitor::LinkMonitor(const LinkMonitorOptions& options, double sample_rate)
    : opts_(options),
      alpha_short_(tau_to_alpha(options.short_tau_s, sample_rate)),
      alpha_long_(tau_to_alpha(options.long_tau_s, sample_rate)),
      alpha_silence_(tau_to_alpha(options.silence_tau_s, sample_rate)),
      silence_power_(options.silence_threshold * options.silence_threshold),
      unhealthy_hold_samples_(hold_samples(options.unhealthy_hold_s,
                                           sample_rate)),
      silence_hold_samples_(hold_samples(options.silence_hold_s, sample_rate)),
      recover_hold_samples_(hold_samples(options.recover_hold_s,
                                         sample_rate)) {
  ensure(sample_rate > 0.0, "link monitor sample rate must be positive");
  ensure(options.dropout_power_ratio > 1.0,
         "dropout power ratio must exceed 1");
  ensure(options.power_floor > 0.0, "power floor must be positive");
}

Sample LinkMonitor::process(Sample x) {
  // The monitor is the layer that ABSORBS bad samples, so unlike every
  // other per-sample entry point it must not MUTE_CHECK_FINITE its input;
  // it checks finiteness itself and squelches instead of aborting.
  MUTE_RT_SCOPE("LinkMonitor::process");
  const double xv = static_cast<double>(x);
  const bool finite = std::isfinite(xv);
  bool bad = false;
  bool silent_now = false;
  bool quiet_now = false;
  unsigned flags = LinkFlags::kNone;

  if (!finite) {
    bad = true;
    flags |= LinkFlags::kNonFinite;
  } else {
    const double p = xv * xv;
    short_power_ += alpha_short_ * (p - short_power_);
    const double baseline =
        long_power_ > opts_.power_floor ? long_power_ : opts_.power_floor;
    const bool noise_burst =
        short_power_ > opts_.dropout_min_power &&
        short_power_ > opts_.dropout_power_ratio * baseline;
    const bool saturated = std::abs(xv) >= opts_.saturation_level;
    if (noise_burst) flags |= LinkFlags::kNoiseBurst;
    if (saturated) flags |= LinkFlags::kSaturated;
    bad = noise_burst || saturated;
    // Silence runs on its own slower tracker so the isolated clicks a
    // captured discriminator emits cannot reset the silence evidence.
    silence_ema_ += alpha_silence_ * (p - silence_ema_);
    silent_now = silence_ema_ < silence_power_;
    // Weaker but faster silence evidence: right after a loss the slow EMA
    // is still decaying from the healthy baseline and reports nothing for
    // ~6 time constants. The fast tracker collapses within milliseconds,
    // so EITHER tracker under the threshold vetoes recovery and baseline
    // learning — otherwise the monitor declares the link healthy inside
    // that decay window and feeds dead air to the adaptive filter.
    quiet_now = silent_now || short_power_ < silence_power_;
    // The slow baseline learns only from samples we currently believe in;
    // freezing it during suspected faults (including suspected silence)
    // keeps a long outage from normalizing itself into the baseline.
    if (!bad && !quiet_now && healthy_) {
      long_power_ += alpha_long_ * (short_power_ - long_power_);
    }
  }

  if (bad) {
    ++bad_streak_;
  } else {
    bad_streak_ = 0;
  }
  if (silent_now) {
    ++silent_streak_;
  } else {
    silent_streak_ = 0;
  }

  if (healthy_) {
    // A single NaN/Inf flags instantly (it is unambiguous); statistical
    // evidence must persist for its hold time.
    const bool want_unhealthy = !finite ||
                                bad_streak_ >= unhealthy_hold_samples_ ||
                                silent_streak_ >= silence_hold_samples_;
    if (want_unhealthy) {
      healthy_ = false;
      latched_flags_ = flags | (silent_streak_ >= silence_hold_samples_
                                    ? LinkFlags::kSilent
                                    : LinkFlags::kNone);
      good_streak_ = 0;
      ++episodes_;
    }
  } else {
    if (finite && !bad && !quiet_now) {
      ++good_streak_;
    } else {
      good_streak_ = 0;
      if (flags != LinkFlags::kNone) latched_flags_ |= flags;
      if (silent_streak_ >= silence_hold_samples_) {
        latched_flags_ |= LinkFlags::kSilent;
      }
    }
    if (good_streak_ >= recover_hold_samples_) {
      healthy_ = true;
      bad_streak_ = 0;
      silent_streak_ = 0;
      good_streak_ = 0;
    }
  }

  if (!healthy_) {
    ++unhealthy_samples_;
    return 0.0f;
  }
  return x;
}

}  // namespace mute::core
