#include "rf/relay.hpp"

#include <algorithm>
#include <cmath>

#include "audio/generators.hpp"
#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "dsp/fft.hpp"
#include "dsp/resampler.hpp"
#include "dsp/signal_ops.hpp"
#include "dsp/spectral.hpp"

namespace mute::rf {

namespace {

// Stream `audio` through transmitter -> channel -> receiver in
// kRelayLinkBlock pieces. Every stage carries its state across calls, so
// the concatenation equals one whole-record pass; the final resize is the
// only pad (rational-resampling rounding guard).
template <typename Channel>
Signal stream_link(RelayTransmitter& tx, Channel& channel, EarReceiver& rx,
                   std::span<const Sample> audio) {
  Signal out;
  out.reserve(audio.size());
  for (std::size_t start = 0; start < audio.size(); start += kRelayLinkBlock) {
    const Signal block = rx.receive(channel.process(
        tx.transmit(audio.subspan(
            start, std::min(kRelayLinkBlock, audio.size() - start)))));
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(audio.size(), 0.0f);
  return out;
}

}  // namespace

std::size_t relay_block_quantum(double audio_rate) {
  const auto [up_l, up_m] =
      mute::dsp::rational_resample_ratio(audio_rate, kDefaultRfSampleRate);
  const auto [down_l, down_m] =
      mute::dsp::rational_resample_ratio(kDefaultRfSampleRate, audio_rate);
  ensure(down_l == up_m && down_m == up_l &&
             static_cast<double>(up_l) * audio_rate ==
                 static_cast<double>(up_m) * kDefaultRfSampleRate,
         "the audio rate must round-trip the RF rate exactly");
  return up_m;
}

RelayTransmitter::RelayTransmitter(const RelayConfig& config,
                                   std::uint64_t /*seed*/)
    : cfg_(config),
      front_end_(kRelayAudioCutoffHz, kRelayAudioGain, kRelayClipLevel,
                 config.audio_rate),
      upsampler_(config.audio_rate, kDefaultRfSampleRate),
      modulator_(kFmDeviationHz, kDefaultRfSampleRate),
      pa_(config.pa_backoff_db) {
  ensure(kDefaultRfSampleRate >= config.audio_rate,
         "the RF rate must be at least the audio rate");
  relay_block_quantum(config.audio_rate);  // rejects an inexact round trip
}

ComplexSignal RelayTransmitter::transmit(std::span<const Sample> audio) {
  Signal conditioned = front_end_.process(audio);
  if (cfg_.scramble) {
    // Spectral inversion: f -> fs/2 - f at the audio rate. The sample
    // parity carries across blocks via scramble_phase_.
    for (auto& v : conditioned) {
      if (scramble_phase_) v = -v;
      scramble_phase_ = !scramble_phase_;
    }
  }
  // Analog interpolation to the RF processing rate. The streaming
  // resampler carries its input tail across calls, so per-block transmits
  // concatenate to the exact whole-record result.
  Signal upsampled = upsampler_.process(conditioned);
  ComplexSignal modulated = modulator_.modulate(upsampled);
  return pa_.process(modulated);
}

void RelayTransmitter::reset() {
  front_end_.reset();
  upsampler_.reset();
  modulator_.reset();
  scramble_phase_ = false;
}

EarReceiver::EarReceiver(const RelayConfig& config, std::uint64_t /*seed*/)
    : cfg_(config),
      select_(kRxBandwidthHz, kDefaultRfSampleRate),
      demodulator_(kFmDeviationHz, kDefaultRfSampleRate),
      downsampler_(kDefaultRfSampleRate, config.audio_rate) {
  relay_block_quantum(config.audio_rate);  // rejects an inexact round trip
}

Signal EarReceiver::receive(std::span<const Complex> rf) {
  ComplexSignal selected = select_.process(rf);
  Signal demodulated = demodulator_.demodulate(selected);
  Signal audio = downsampler_.process(demodulated);
  if (cfg_.scramble) {
    // Undo the spectral inversion (self-inverse up to a harmless global
    // sign that depends on the link delay parity). Parity continuity is
    // kept across blocks via descramble_phase_.
    for (auto& v : audio) {
      if (descramble_phase_) v = -v;
      descramble_phase_ = !descramble_phase_;
    }
  }
  return audio;
}

void EarReceiver::reset() {
  select_.reset();
  demodulator_.reset();
  downsampler_.reset();
  descramble_phase_ = false;
}

RelayLink::RelayLink(const RelayConfig& config, std::uint64_t seed)
    : cfg_(config), seed_(seed), tx_(config, seed),
      channel_(config.faults, config.channel, kDefaultRfSampleRate,
               seed + 1),
      rx_(config, seed + 2) {}

Signal RelayLink::process(std::span<const Sample> audio) {
  return stream_link(tx_, channel_, rx_, audio);
}

void RelayLink::set_fault_schedule(FaultSchedule schedule) {
  cfg_.faults = schedule;
  channel_.set_schedule(std::move(schedule));
  invalidate_latency_cache();
}

double RelayLink::measure_latency_samples() {
  if (cached_latency_ >= 0.0) return cached_latency_;
  // Probe with band-limited white noise and find the cross-correlation
  // peak between input and output. The probe link strips the fault
  // schedule: a measurement taken through a scripted outage or jammer
  // burst would be garbage, and what the timing budget needs is the
  // *nominal* group delay of the healthy link.
  const auto n = static_cast<std::size_t>(cfg_.audio_rate / 2);  // 0.5 s
  mute::audio::WhiteNoiseSource probe(0.2, seed_ + 77);
  RelayConfig probe_cfg = cfg_;
  probe_cfg.faults = FaultSchedule{};
  RelayLink fresh(probe_cfg, seed_);  // do not disturb streaming state
  Signal in = probe.generate(n);
  Signal out = fresh.process(in);

  const std::size_t nfft = mute::next_pow2(2 * n);
  ComplexSignal fa(nfft), fb(nfft);
  for (std::size_t i = 0; i < n; ++i) {
    fa[i] = static_cast<double>(in[i]);
    fb[i] = static_cast<double>(out[i]);
  }
  mute::dsp::fft_inplace(fa);
  mute::dsp::fft_inplace(fb);
  for (std::size_t i = 0; i < nfft; ++i) fa[i] = fb[i] * std::conj(fa[i]);
  mute::dsp::ifft_inplace(fa);
  // Only non-negative lags are physical here.
  std::size_t best = 0;
  double best_v = -1.0;
  for (std::size_t lag = 0; lag < n; ++lag) {
    const double v = std::abs(fa[lag]);
    if (v > best_v) {
      best_v = v;
      best = lag;
    }
  }
  cached_latency_ = static_cast<double>(best);
  return cached_latency_;
}

double RelayLink::measure_sndr_db(double tone_hz, double amplitude) {
  ensure(tone_hz > 0 && tone_hz < cfg_.audio_rate / 2, "tone inside band");
  const auto n = static_cast<std::size_t>(cfg_.audio_rate * 2);
  mute::audio::ToneSource probe(tone_hz, amplitude, cfg_.audio_rate);
  RelayLink fresh(cfg_, seed_);
  Signal in = probe.generate(n);
  Signal out = fresh.process(in);
  // Discard the settling head.
  const std::size_t skip = n / 4;
  const std::span<const Sample> tail(out.data() + skip, n - skip);
  auto psd = mute::dsp::welch_psd(tail, cfg_.audio_rate, 2048);
  // Signal power: +-2 bins around the tone; the rest (above DC block) is
  // noise + distortion.
  const double bin_width = psd.freq_hz[1] - psd.freq_hz[0];
  const double sig = psd.band_power(tone_hz - 2 * bin_width,
                                    tone_hz + 2 * bin_width);
  const double total = psd.band_power(30.0, cfg_.audio_rate / 2);
  const double nd = std::max(total - sig, 1e-20);
  return power_to_db(sig / nd);
}

Signal RelayLink::eavesdrop(std::span<const Sample> audio) {
  // A fresh pipeline whose receiver does NOT know about scrambling.
  RelayConfig eaves_cfg = cfg_;
  RelayConfig tx_cfg = cfg_;
  eaves_cfg.scramble = false;
  RelayTransmitter tx(tx_cfg, seed_);
  RfChannel channel(cfg_.channel, kDefaultRfSampleRate, seed_ + 1);
  EarReceiver rx(eaves_cfg, seed_ + 2);
  return stream_link(tx, channel, rx, audio);
}

void RelayLink::reset() {
  tx_.reset();
  channel_.reset();
  rx_.reset();
  // cached_latency_ is intentionally kept: the link replays the same
  // deterministic stream after a reset, so the measured group delay is
  // still correct. See measure_latency_samples() in relay.hpp.
}

}  // namespace mute::rf
