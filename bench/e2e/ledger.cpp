#include "ledger.hpp"

#include <algorithm>
#include <optional>

#include "adaptive/sysid.hpp"
#include "common/error.hpp"
#include "core/lanc.hpp"
#include "core/link_monitor.hpp"
#include "core/mute_device.hpp"
#include "core/relay_select.hpp"
#include "core/shadow_filter.hpp"
#include "dsp/fir_filter.hpp"

namespace e2e {

namespace {

using mute::Sample;
using mute::Signal;
using State = mute::core::MuteDevice::State;

// One clock-read pair per 256 ticks keeps timer cost far below 2% of the
// measured work (a tick costs ~0.5 us; two reads cost ~50 ns).
constexpr std::size_t kChunk = 256;
constexpr std::size_t kNoRelay = static_cast<std::size_t>(-1);

struct ShadowEvent {
  std::size_t tick = 0;  // takes effect from this tick on
  bool has_target = false;
  std::size_t relay = 0;
  std::size_t taps = 0;
  double lookahead_s = 0.0;
};

// Everything the record pass captured, per tick.
struct Recording {
  std::vector<std::size_t> cursor;
  Signal error_in;  // error sample handed to tick()
  Signal y;         // speaker feed tick() returned
  std::vector<State> state_in;
  std::vector<std::size_t> active_in;
  std::vector<ShadowEvent> shadow_events;
  std::size_t assoc_taps = 0;  // LANC future taps at the first association
  double assoc_lookahead_s = 0.0;
};

// Runs body(t) for every tick in order and times the chunks spent entirely
// in kRunning as `name` spans. Returns the timed seconds.
template <class Body>
double replay(Tracer& tracer, const std::string& name, const std::string& trace,
              const std::vector<bool>& running_chunk, std::size_t ticks,
              Body&& body) {
  double total = 0.0;
  for (std::size_t c = 0; c * kChunk < ticks; ++c) {
    const std::size_t begin = c * kChunk;
    const std::size_t end = std::min(ticks, begin + kChunk);
    if (!running_chunk[c]) {
      for (std::size_t t = begin; t < end; ++t) body(t);
      continue;
    }
    const std::uint64_t id = tracer.begin(name, trace);
    for (std::size_t t = begin; t < end; ++t) body(t);
    tracer.end(id);
    total += tracer.seconds(id);
  }
  return total;
}

Recording record(const mute::sim::FleetProfile& profile,
                 mute::core::MuteDevice& device, std::size_t ticks) {
  const mute::sim::DeviceStreams& s = profile.streams;
  const std::size_t len = profile.length();
  const std::size_t relays = s.x.size();
  mute::dsp::FirFilter plant(s.hse_eff);

  Recording r;
  r.cursor.resize(ticks);
  r.error_in.resize(ticks);
  r.y.resize(ticks);
  r.state_in.resize(ticks);
  r.active_in.resize(ticks);

  Signal feed(relays, 0.0f);
  Sample error = 0.0f;
  std::size_t cursor = 0;
  ShadowEvent last_shadow;
  bool associated = false;
  for (std::size_t t = 0; t < ticks; ++t) {
    if (cursor >= len) cursor = profile.loop_start;
    for (std::size_t k = 0; k < relays; ++k) feed[k] = s.x[k][cursor];
    r.cursor[t] = cursor;
    r.error_in[t] = error;
    r.state_in[t] = device.state();
    r.active_in[t] = device.active_relay().value_or(kNoRelay);

    // run_device_simulation's loop body.
    const Sample y = device.tick(feed, error);
    const Sample anti = plant.process(y);
    error = static_cast<Sample>(static_cast<double>(s.d[cursor]) +
                                static_cast<double>(anti));
    r.y[t] = y;
    ++cursor;

    if (!associated && device.state() == State::kRunning) {
      associated = true;
      r.assoc_taps = device.noncausal_taps();
      r.assoc_lookahead_s = device.measured_lookahead_s();
    }
    if (const auto* shadow = device.shadow()) {
      ShadowEvent now;
      now.tick = t + 1;
      now.has_target = shadow->has_target();
      if (now.has_target) {
        now.relay = shadow->relay();
        now.taps = shadow->engine().noncausal_taps();
        now.lookahead_s = shadow->lookahead_s();
      }
      if (now.has_target != last_shadow.has_target ||
          now.relay != last_shadow.relay || now.taps != last_shadow.taps) {
        r.shadow_events.push_back(now);
        last_shadow = now;
      }
    }
  }
  return r;
}

// The LANC options MuteDevice::associate() derives from the device config.
mute::core::LancOptions associate_options(
    const mute::core::MuteDeviceConfig& cfg, std::size_t noncausal_taps) {
  mute::core::LancOptions opts = cfg.lanc;
  opts.sample_rate = cfg.sample_rate;
  if (opts.fxlms.weight_norm_limit <= 0.0) {
    opts.fxlms.weight_norm_limit = cfg.weight_norm_limit;
  }
  if (cfg.link_supervision && opts.fxlms.min_excitation <= 0.0) {
    opts.fxlms.min_excitation = 1e-5;
  }
  opts.fxlms.noncausal_taps = noncausal_taps;
  return opts;
}

}  // namespace

LedgerResult run_ledger(const mute::sim::FleetProfile& profile,
                        std::uint64_t device_seed, std::size_t ticks,
                        Tracer& tracer, const std::string& trace) {
  mute::ensure(tracer.enabled(), "the ledger times layers through spans");
  mute::ensure(profile.loop_start != mute::sim::FleetProfile::kNoLoop,
               "the ledger drives a looped profile");
  const mute::sim::DeviceStreams& s = profile.streams;
  mute::core::MuteDeviceConfig cfg = s.device;
  cfg.seed = device_seed;
  const std::size_t relays = s.x.size();

  LedgerResult out;
  out.relays = relays;
  out.ticks = ticks;
  out.plant_taps = s.hse_eff.size();
  const bool shadow_in_device = cfg.enable_shadow && relays > 1;

  mute::core::MuteDevice device(cfg);
  Recording rec;
  {
    SpanScope span(tracer, "ledger.record", trace);
    rec = record(profile, device, ticks);
  }
  out.handoffs = device.handoff_count();
  out.shadow_handoffs = device.shadow_handoff_count();

  std::vector<bool> running_chunk((ticks + kChunk - 1) / kChunk, false);
  for (std::size_t c = 0; c < running_chunk.size(); ++c) {
    const std::size_t begin = c * kChunk;
    const std::size_t end = begin + kChunk;
    if (end > ticks) break;  // only full chunks are timed
    bool all = true;
    for (std::size_t t = begin; t < end && all; ++t) {
      all = rec.state_in[t] == State::kRunning;
    }
    running_chunk[c] = all;
    if (all) out.timed_ticks += kChunk;
  }
  for (const State st : rec.state_in) {
    if (st == State::kRunning) ++out.running_state_ticks;
  }

  // --- Whole device: a fresh device on the recorded inputs reproduces the
  //     recorded outputs exactly (it is deterministic in its inputs).
  bool exact = true;
  {
    mute::core::MuteDevice again(cfg);
    Signal feed(relays, 0.0f);
    out.tick_s = replay(tracer, "core.mute_device.tick", trace, running_chunk,
                        ticks, [&](std::size_t t) {
                          for (std::size_t k = 0; k < relays; ++k) {
                            feed[k] = s.x[k][rec.cursor[t]];
                          }
                          if (again.tick(feed, rec.error_in[t]) != rec.y[t]) {
                            exact = false;
                          }
                        });
  }

  // --- Link monitors: also produce the sanitized feeds and health flags
  //     every downstream layer consumes inside the device.
  std::vector<Signal> sanitized(relays, Signal(ticks, 0.0f));
  std::vector<std::vector<char>> healthy(relays,
                                         std::vector<char>(ticks, 1));
  if (cfg.link_supervision) {
    std::vector<mute::core::LinkMonitor> monitors;
    monitors.reserve(relays);
    for (std::size_t k = 0; k < relays; ++k) {
      monitors.emplace_back(cfg.link_monitor, cfg.sample_rate);
    }
    out.link_monitor_s = replay(
        tracer, "core.link_monitor.process", trace, running_chunk, ticks,
        [&](std::size_t t) {
          for (std::size_t k = 0; k < relays; ++k) {
            sanitized[k][t] = monitors[k].process(s.x[k][rec.cursor[t]]);
            healthy[k][t] = monitors[k].healthy() ? 1 : 0;
          }
        });
  } else {
    for (std::size_t k = 0; k < relays; ++k) {
      for (std::size_t t = 0; t < ticks; ++t) {
        sanitized[k][t] = s.x[k][rec.cursor[t]];
      }
    }
  }

  // --- Relay selection: one push per tick outside calibration, exactly
  //     as the device pushes; each round gets its own child span.
  {
    mute::core::RelaySelector selector(relays, cfg.sample_rate,
                                       cfg.selection_period_s, cfg.selection);
    const auto period = static_cast<std::size_t>(cfg.selection_period_s *
                                                 cfg.sample_rate);
    std::size_t pushes = 0;
    Signal feed(relays, 0.0f);
    out.push_s = replay(
        tracer, "core.relay_select.push", trace, running_chunk, ticks,
        [&](std::size_t t) {
          if (rec.state_in[t] == State::kCalibrating) return;
          for (std::size_t k = 0; k < relays; ++k) feed[k] = sanitized[k][t];
          ++pushes;
          if (pushes % period != 0) {
            (void)selector.push(feed, rec.error_in[t]);
            return;
          }
          const std::uint64_t id =
              tracer.begin("core.relay_select.round", trace);
          const auto selection = selector.push(feed, rec.error_in[t]);
          tracer.end(id);
          out.round_s.push_back(tracer.seconds(id));
          if (selection.has_value() && !selection->ranked.empty()) {
            ++out.confident_rounds;
          }
        });
  }

  const mute::core::LancOptions lanc_opts =
      associate_options(cfg, rec.assoc_taps);

  // --- LANC: the controller associate() builds, driven on the running
  //     ticks with the active relay's sanitized feed.
  {
    mute::core::LancController lanc(device.calibration().impulse_response,
                                    lanc_opts);
    out.lanc_total_taps = lanc.engine().total_taps();
    out.lanc_s = replay(tracer, "core.lanc.tick", trace, running_chunk, ticks,
                        [&](std::size_t t) {
                          if (rec.state_in[t] != State::kRunning) return;
                          lanc.observe_error(rec.error_in[t]);
                          (void)lanc.tick(sanitized[rec.active_in[t]][t]);
                        });
  }

  // --- Shadow filter: follows the recorded target assignments and
  //     observes the standby feed against the recorded primary output.
  {
    mute::core::ShadowFilter shadow(lanc_opts.fxlms, cfg.shadow);
    std::size_t next_event = 0;
    std::optional<std::size_t> target;
    if (!shadow_in_device) {
      shadow.assign(0, rec.assoc_taps, rec.assoc_lookahead_s);
      target = 0;
    }
    out.shadow_s = replay(
        tracer, "core.shadow_filter.observe", trace, running_chunk, ticks,
        [&](std::size_t t) {
          if (shadow_in_device) {
            while (next_event < rec.shadow_events.size() &&
                   rec.shadow_events[next_event].tick == t) {
              const ShadowEvent& e = rec.shadow_events[next_event++];
              if (e.has_target) {
                shadow.assign(e.relay, e.taps, e.lookahead_s);
                target = e.relay;
              } else {
                shadow.clear();
                target.reset();
              }
            }
            if (!target.has_value() || *target == rec.active_in[t] ||
                healthy[*target][t] == 0) {
              return;
            }
          }
          if (rec.state_in[t] != State::kRunning) return;
          shadow.observe(sanitized[*target][t], rec.y[t]);
        });
  }

  // --- Secondary-path identification on the recorded calibration log
  //     (the device logs the previous training sample against this
  //     tick's error-mic reading).
  {
    Signal stimulus;
    Signal response;
    const auto cal_samples =
        static_cast<std::size_t>(cfg.calibration_s * cfg.sample_rate);
    Sample last = 0.0f;
    for (std::size_t t = 0;
         t < ticks && rec.state_in[t] == State::kCalibrating; ++t) {
      if (!stimulus.empty() || last != 0.0f) {
        stimulus.push_back(last);
        response.push_back(rec.error_in[t]);
      }
      if (stimulus.size() >= cal_samples) break;
      last = rec.y[t];
    }
    const std::uint64_t id = tracer.begin("adaptive.sysid.identify", trace);
    const auto identified =
        mute::adaptive::identify_system(stimulus, response, cfg.secondary_taps);
    tracer.end(id);
    out.sysid_s = tracer.seconds(id);
    exact = exact && identified.impulse_response ==
                         device.calibration().impulse_response;
  }

  // --- The simulated plant (secondary path incl. latency budget) on the
  //     recorded speaker feed.
  {
    mute::dsp::FirFilter plant(s.hse_eff);
    out.plant_s = replay(tracer, "dsp.fir_filter.plant", trace, running_chunk,
                         ticks, [&](std::size_t t) {
                           (void)plant.process(rec.y[t]);
                         });
  }

  out.attributed_s = out.link_monitor_s + out.push_s + out.lanc_s +
                     (shadow_in_device ? out.shadow_s : 0.0);
  out.replay_exact = exact;
  return out;
}

LedgerResult& LedgerResult::operator+=(const LedgerResult& r) {
  if (ticks == 0) {
    lanc_total_taps = r.lanc_total_taps;
    plant_taps = r.plant_taps;
  }
  relays = std::max(relays, r.relays);
  ticks += r.ticks;
  running_state_ticks += r.running_state_ticks;
  timed_ticks += r.timed_ticks;
  tick_s += r.tick_s;
  link_monitor_s += r.link_monitor_s;
  push_s += r.push_s;
  lanc_s += r.lanc_s;
  shadow_s += r.shadow_s;
  plant_s += r.plant_s;
  attributed_s += r.attributed_s;
  round_s.insert(round_s.end(), r.round_s.begin(), r.round_s.end());
  confident_rounds += r.confident_rounds;
  sysid_s += r.sysid_s;
  handoffs += r.handoffs;
  shadow_handoffs += r.shadow_handoffs;
  replay_exact = replay_exact && r.replay_exact;
  return *this;
}

}  // namespace e2e
