#include "acoustics/channel.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace mute::acoustics {

AcousticChannel::AcousticChannel(std::vector<double> impulse_response,
                                 std::string label)
    : ir_(std::move(impulse_response)), label_(std::move(label)) {
  ensure(!ir_.empty(), "impulse response must be non-empty");
}

Signal AcousticChannel::apply(std::span<const Sample> in) const {
  return mute::dsp::convolve_same(in, ir_);
}

double AcousticChannel::energy() const {
  double e = 0.0;
  for (double v : ir_) e += v * v;
  return e;
}

std::vector<double> shift_ir(const std::vector<double>& ir,
                             std::size_t samples) {
  std::vector<double> out(ir.size(), 0.0);
  for (std::size_t i = 0; i + samples < ir.size(); ++i) {
    out[i + samples] = ir[i];
  }
  return out;
}

std::vector<double> cascade_ir(const std::vector<double>& a,
                               const std::vector<double>& b,
                               std::size_t max_len) {
  ensure(!a.empty() && !b.empty(), "cascade inputs must be non-empty");
  const std::size_t full = a.size() + b.size() - 1;
  const std::size_t len = std::min(full, max_len);
  std::vector<double> out(len, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 0.0) continue;
    const std::size_t jmax = std::min(b.size(), len - std::min(i, len));
    for (std::size_t j = 0; j < jmax; ++j) {
      if (i + j < len) out[i + j] += a[i] * b[j];
    }
  }
  return out;
}

}  // namespace mute::acoustics
