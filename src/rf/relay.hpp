#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/types.hpp"
#include "dsp/resampler.hpp"
#include "rf/fm.hpp"
#include "rf/frontend.hpp"
#include "rf/impairments.hpp"
#include "rf/rf_channel.hpp"

namespace mute::rf {

/// Fixed parameters of the analog relay chain. The complex baseband
/// stream runs at kDefaultRfSampleRate.
inline constexpr double kRelayAudioCutoffHz = 7'000.0;  // relay LPF
inline constexpr double kRelayAudioGain = 1.0;
inline constexpr double kRelayClipLevel = 4.0;
inline constexpr double kFmDeviationHz = 60'000.0;    // wideband-FM-style
inline constexpr double kRxBandwidthHz = 180'000.0;   // channel select (Carson)
static_assert(kDefaultRfSampleRate > 2 * kFmDeviationHz,
              "the RF rate must exceed twice the FM deviation");

/// Audio samples per internal block of RelayLink::process: 1024 at 16 kHz
/// is 16384 RF samples, ~256 KB per complex intermediate (chosen by
/// measurement, DESIGN.md §4b).
inline constexpr std::size_t kRelayLinkBlock = 1024;

/// Audio samples per exact RF round trip at `audio_rate`: the denominator
/// of the audio -> RF up-ratio (1 at 16 kHz, 3 at 48 kHz). A
/// RelayLink::process call whose length is a whole multiple of it returns
/// exactly its own length of received audio, so successive calls
/// concatenate to one whole-record call. Throws PreconditionError for a
/// rate whose up and down ratios are not exact inverses (44.1 kHz: the
/// down ratio 441/2560 has no denominator the resampler search reaches),
/// since such a link would drift against the acoustic path.
std::size_t relay_block_quantum(double audio_rate);

/// Configuration of the end-to-end relay link.
struct RelayConfig {
  double audio_rate = kDefaultSampleRate;
  double pa_backoff_db = 3.0;
  // Privacy (Section 4.4 "sound scrambling"): spectrally invert the audio
  // before modulation (multiply by (-1)^n, mapping f -> fs/2 - f). The
  // legitimate ear device inverts it back; an eavesdropper who demodulates
  // the FM signal without the descrambler hears an unintelligible
  // frequency-flipped version.
  bool scramble = false;
  RfChannelParams channel{};
  // Scripted fault events (relay power-off, jammers, fades, impulses,
  // clock drift) injected around the benign channel model. Empty = the
  // benign link. See rf/impairments.hpp.
  FaultSchedule faults{};
};

/// The all-analog IoT relay transmitter (paper Figure 9): microphone audio
/// -> LPF -> amplifier -> VCO/FM -> (PLL up-conversion, modeled as the
/// baseband phasor) -> PA. Audio enters at `audio_rate`; the emitted
/// complex baseband stream is at kDefaultRfSampleRate. No sample is ever
/// stored.
///
/// Every stage is streaming-stateful (biquads, VCO phase, the scrambler's
/// sample parity and the interpolator's carried input tail), so splitting
/// a record into blocks produces the bit-identical stream a single
/// whole-record call would.
class RelayTransmitter {
 public:
  RelayTransmitter(const RelayConfig& config, std::uint64_t seed);

  /// Transmit a block of audio; returns the complex baseband RF signal
  /// (length = audio length * kDefaultRfSampleRate / audio_rate).
  ComplexSignal transmit(std::span<const Sample> audio);

 private:
  RelayConfig cfg_;
  AudioFrontEnd front_end_;
  mute::dsp::StreamingResampler upsampler_;
  FmModulator modulator_;
  PowerAmplifier pa_;
  bool scramble_phase_ = false;
};

/// The ear-device receiver: channel-select filter -> FM discriminator ->
/// DC block (CFO removal) -> decimation back to the audio rate. Streaming-
/// stateful end to end (see RelayTransmitter): block boundaries are
/// invisible in the output.
class EarReceiver {
 public:
  EarReceiver(const RelayConfig& config, std::uint64_t seed);

  /// Receive a complex baseband block; returns audio at `audio_rate`.
  Signal receive(std::span<const Complex> rf);

 private:
  RelayConfig cfg_;
  ChannelSelectFilter select_;
  FmDemodulator demodulator_;
  mute::dsp::StreamingResampler downsampler_;
  bool descramble_phase_ = false;
};

/// Offline convenience: the full relay -> channel -> receiver pipeline.
/// Use `measure_latency_samples()` once to learn the link's group delay in
/// audio samples; the ANC timing budget must subtract it from the acoustic
/// lookahead (Equation 3).
class RelayLink {
 public:
  RelayLink(const RelayConfig& config, std::uint64_t seed);

  /// Push audio through TX -> channel -> RX. Output length == input length
  /// (the link's filters introduce group delay *within* the stream, which
  /// is the realistic behaviour the ANC must budget for). Streams
  /// internally in kRelayLinkBlock pieces, so the RF intermediates stay
  /// bounded whatever the record length; the result is bit-identical to
  /// one whole-record pass, padded only at the end. Successive calls
  /// concatenate exactly when each length is a whole multiple of
  /// relay_block_quantum(audio_rate); otherwise each call pads on its own.
  Signal process(std::span<const Sample> audio);

  /// Estimate the link group delay by cross-correlating a white probe with
  /// its received copy. The probe runs through a fresh, fault-free copy of
  /// the link built from (config, seed), so the result depends on nothing
  /// else: not on streaming, retunes or TX gain steps.
  double measure_latency_samples() const;

  /// Retune the link to another ISM channel (spectrum-planner action).
  /// The channel index is a narrowband coupling label for channel-pinned
  /// jammers, not a different signal path.
  void retune(std::size_t channel) { channel_.retune(channel); }
  std::size_t channel() const { return channel_.channel(); }

  /// TX power step in dB (planner escalation). Amplitude-only: the FM
  /// information lives in frequency.
  void set_tx_gain_db(double gain_db) { channel_.set_tx_gain_db(gain_db); }
  double tx_gain_db() const { return channel_.tx_gain_db(); }

  /// Audio-band SNDR of the link for a sine probe at `tone_hz`, in dB.
  double measure_sndr_db(double tone_hz, double amplitude = 0.5);

  /// What an eavesdropper (standard FM receiver WITHOUT the descrambler)
  /// hears: correlation with the transmitted audio collapses when
  /// scrambling is on. Returns the received audio record.
  Signal eavesdrop(std::span<const Sample> audio);

 private:
  RelayConfig cfg_;
  std::uint64_t seed_;
  RelayTransmitter tx_;
  FaultInjector channel_;
  EarReceiver rx_;
};

}  // namespace mute::rf
