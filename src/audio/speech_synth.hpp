#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "audio/source.hpp"
#include "common/rng.hpp"
#include "dsp/biquad.hpp"

namespace mute::audio {

/// Parameters of a formant speech synthesizer. The synthesizer is a
/// source-filter model: a glottal pulse train (voiced) or noise (unvoiced)
/// excitation drives three formant resonators whose center frequencies
/// wander through a vowel inventory; syllable and sentence envelopes add
/// the temporal structure of real speech (the paper's "male voice" /
/// "female voice" workloads).
struct SpeechParams {
  double pitch_hz = 110.0;        // fundamental (male ~110, female ~210)
  double pitch_jitter = 0.03;     // relative random pitch modulation
  double syllable_rate_hz = 4.0;  // syllables per second
  double voiced_fraction = 0.8;   // fraction of syllables voiced
  double sentence_s = 2.5;        // mean sentence length
  double pause_s = 0.8;           // mean inter-sentence pause
  double amplitude = 0.25;        // overall RMS-ish scale
  bool continuous = false;        // true = no sentence pauses

  static SpeechParams male();
  static SpeechParams female();
};

class SpeechSource final : public SoundSource {
 public:
  SpeechSource(SpeechParams params, double sample_rate, std::uint64_t seed);

  void render(std::span<Sample> out) override;
  void reset() override;
  std::string name() const override;

 private:
  void rebuild();
  void next_syllable();
  void next_sentence_state();
  double excitation_sample();

  SpeechParams params_;
  double fs_;
  std::uint64_t seed_;
  Rng rng_;

  // Formant resonators (3 bandpass sections).
  std::array<mute::dsp::Biquad, 3> formants_;
  std::array<double, 3> current_formants_{};
  std::array<double, 3> target_formants_{};

  // Excitation state.
  double glottal_phase_ = 0.0;
  double pitch_now_ = 110.0;
  bool syllable_voiced_ = true;

  // Temporal structure.
  bool in_sentence_ = false;
  std::size_t state_remaining_ = 0;     // samples left in sentence/pause
  std::size_t syllable_remaining_ = 0;  // samples left in syllable
  std::size_t syllable_len_ = 1;
  double syllable_pos_ = 0.0;
};

}  // namespace mute::audio
