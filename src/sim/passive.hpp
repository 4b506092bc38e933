#pragma once

#include <span>

#include "common/types.hpp"
#include "dsp/biquad.hpp"

namespace mute::sim {

/// Passive acoustic attenuation of a circumaural headphone shell
/// (Bose QC35's "sound-absorbing material"): a few dB of leakage-limited
/// loss at low frequency rising to ~35 dB by 4 kHz — the textbook shape
/// the paper leans on ("passive material is effective at higher
/// frequencies").
///
/// Implemented as a cascade of shelving biquads (near-minimum-phase), so
/// the shell adds essentially no group delay: a physical shell does not
/// delay the sound that leaks through it, and modeling it with a
/// linear-phase FIR would smuggle milliseconds of artificial lookahead
/// into the Bose_Overall / MUTE+Passive comparisons.
class PassiveShell {
 public:
  explicit PassiveShell(double sample_rate);

  /// Attenuate outside noise on its way to the ear (offline).
  Signal apply(std::span<const Sample> outside);

  /// Streaming form.
  Sample process(Sample x);

  /// Insertion loss at `freq_hz` in dB (positive = attenuation).
  double insertion_loss_db(double freq_hz) const;

  double sample_rate() const { return fs_; }

 private:
  double fs_;
  double broadband_gain_;  // low-frequency leakage floor
  mute::dsp::BiquadCascade shelves_;
};

}  // namespace mute::sim
