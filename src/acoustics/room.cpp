#include "acoustics/room.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/math_utils.hpp"

namespace mute::acoustics {

Room Room::office() { return Room{}; }

Room Room::anechoic() {
  Room r;
  r.reflection_x = r.reflection_y = r.reflection_z = 0.02;
  r.max_order = 1;
  return r;
}

bool Room::contains(Point p) const {
  return p.x > 0 && p.x < lx && p.y > 0 && p.y < ly && p.z > 0 && p.z < lz;
}

namespace {

/// Add one band-limited impulse of amplitude `amp` at fractional sample
/// position `delay` into `rir` using a Hann-windowed sinc of `taps` points.
void add_bandlimited_impulse(std::vector<double>& rir, double delay,
                             double amp, std::size_t taps) {
  const auto half = static_cast<std::ptrdiff_t>(taps / 2);
  const auto center = static_cast<std::ptrdiff_t>(std::floor(delay));
  for (std::ptrdiff_t i = center - half; i <= center + half; ++i) {
    if (i < 0 || i >= static_cast<std::ptrdiff_t>(rir.size())) continue;
    const double t = static_cast<double>(i) - delay;
    const double w =
        0.5 + 0.5 * std::cos(kPi * t / (static_cast<double>(half) + 1.0));
    rir[static_cast<std::size_t>(i)] += amp * sinc(t) * std::max(w, 0.0);
  }
}

/// 1D image-source coordinate for walls at 0 and L: even image indices
/// translate the source (n*L + x), odd indices reflect it (n*L + L - x).
/// |n| equals the number of wall reflections along this axis.
double image_coordinate(double x, double l, int n) {
  const double base = static_cast<double>(n) * l;
  return (n % 2 == 0) ? base + x : base + (l - x);
}

}  // namespace

std::vector<double> image_source_rir(const Room& room, Point source,
                                     Point receiver, const RirOptions& opts) {
  ensure(room.contains(source), "source must be inside the room");
  ensure(room.contains(receiver), "receiver must be inside the room");
  ensure(opts.sample_rate > 0, "sample rate must be positive");
  ensure(opts.length >= 16, "RIR length too short");

  std::vector<double> rir(opts.length, 0.0);
  const int order = room.max_order;
  for (int nx = -order; nx <= order; ++nx) {
    for (int ny = -order; ny <= order; ++ny) {
      for (int nz = -order; nz <= order; ++nz) {
        if (std::abs(nx) + std::abs(ny) + std::abs(nz) > order) continue;
        const double img_x = image_coordinate(source.x, room.lx, nx);
        const double img_y = image_coordinate(source.y, room.ly, ny);
        const double img_z = image_coordinate(source.z, room.lz, nz);

        const Point img{img_x, img_y, img_z};
        const double d = distance(img, receiver);
        const double delay =
            d / room.speed_of_sound * opts.sample_rate;
        if (delay >= static_cast<double>(opts.length)) continue;

        const double refl =
            std::pow(room.reflection_x, std::abs(nx)) *
            std::pow(room.reflection_y, std::abs(ny)) *
            std::pow(room.reflection_z, std::abs(nz));
        add_bandlimited_impulse(rir, delay, refl * spreading_gain(d),
                                kRirInterpTaps);
      }
    }
  }
  return rir;
}

double direct_delay_samples(const Room& room, Point source, Point receiver,
                            double sample_rate) {
  return distance(source, receiver) / room.speed_of_sound * sample_rate;
}

double estimate_rt60(const std::vector<double>& rir, double sample_rate) {
  ensure(sample_rate > 0, "sample rate must be positive");
  if (rir.empty()) return 0.0;
  // Schroeder backward-integrated energy decay curve, in dB.
  std::vector<double> edc(rir.size());
  double acc = 0.0;
  for (std::size_t i = rir.size(); i-- > 0;) {
    acc += rir[i] * rir[i];
    edc[i] = acc;
  }
  const double total = std::max(edc.front(), 1e-30);
  // Find times where the EDC crosses -5 dB and -25 dB; extrapolate T20->T60.
  double t5 = -1.0, t25 = -1.0;
  for (std::size_t i = 0; i < edc.size(); ++i) {
    const double db = 10.0 * std::log10(std::max(edc[i] / total, 1e-30));
    if (t5 < 0 && db <= -5.0) t5 = static_cast<double>(i) / sample_rate;
    if (t25 < 0 && db <= -25.0) {
      t25 = static_cast<double>(i) / sample_rate;
      break;
    }
  }
  if (t5 < 0 || t25 < 0 || t25 <= t5) return 0.0;
  return 3.0 * (t25 - t5);  // -20 dB span scaled to -60 dB
}

}  // namespace mute::acoustics
