#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rt_annotations.hpp"

namespace mute::dsp {

/// Doubled-buffer sliding history with an O(1) push and a *contiguous*
/// window — the storage scheme behind every per-sample tap loop
/// (DESIGN.md §10).
///
/// The classic alternatives both lose: shifting a vector per sample
/// (std::rotate) is O(length), and a plain circular buffer keeps O(1) push
/// but splits the window in two, putting a modulo in the inner loop of
/// every dot product. Storing each sample TWICE — at `head` and at
/// `head + length` in a 2*length buffer — keeps the most recent `length`
/// samples contiguous at `&buf[head]` no matter where the head is:
///
///     buf:  [ d c b a | d c b a ]      after pushes a,b,c,d (length 4)
///             ^window() = {d,c,b,a}    newest-first
///
/// push() decrements the head (wrapping from 0 back to length-1) and
/// writes the mirrored pair; window() is then newest-first: window()[0] is
/// the sample just pushed, window()[k] the one pushed k samples ago. This
/// matches the newest-first convention of the adaptive engines
/// (x_hist_[i] = x(t - (i - N))) and of FirFilter coefficients (h[0]
/// multiplies the newest sample).
template <typename T>
class RingHistory {
 public:
  explicit RingHistory(std::size_t length) { assign(length, T{}); }

  /// O(1), allocation-free: drop the oldest sample, admit `v` as newest.
  MUTE_RT_SAFE void push(T v) {
    head_ = (head_ == 0) ? len_ - 1 : head_ - 1;
    buf_[head_] = v;
    buf_[head_ + len_] = v;
  }

  /// Contiguous newest-first window of the last size() samples.
  const T* data() const { return buf_.data() + head_; }
  std::span<const T> window() const { return {data(), len_}; }

  T newest() const { return buf_[head_]; }
  T oldest() const { return buf_[head_ + len_ - 1]; }
  std::size_t size() const { return len_; }

  /// Overwrite every history slot (typically fill(0) on reset). Keeps the
  /// current head; allocation-free.
  void fill(T v) { std::fill(buf_.begin(), buf_.end(), v); }

  /// Resize and refill. Control-plane only: allocates.
  MUTE_RT_UNSAFE void assign(std::size_t length, T v) {
    ensure(length >= 1, "ring history length must be >= 1");
    len_ = length;
    head_ = 0;
    buf_.assign(2 * length, v);
  }

 private:
  std::vector<T> buf_;
  std::size_t len_ = 0;
  std::size_t head_ = 0;
};

/// Same doubled-buffer trick with the window in OLDEST-first order:
/// window()[0] is the oldest retained sample, window()[size()-1] the one
/// just pushed. This is the natural layout for frame-oriented consumers
/// (the LANC profiler hands window() straight to the signature extractor).
/// push() writes the mirrored pair then advances the head.
template <typename T>
class FrameHistory {
 public:
  explicit FrameHistory(std::size_t length) { assign(length, T{}); }

  /// O(1), allocation-free: drop the oldest sample, append `v` as newest.
  MUTE_RT_SAFE void push(T v) {
    buf_[head_] = v;
    buf_[head_ + len_] = v;
    head_ = (head_ + 1 == len_) ? 0 : head_ + 1;
  }

  /// Contiguous oldest-first window of the last size() samples.
  const T* data() const { return buf_.data() + head_; }
  std::span<const T> window() const { return {data(), len_}; }

  T newest() const { return buf_[head_ + len_ - 1]; }
  T oldest() const { return buf_[head_]; }
  std::size_t size() const { return len_; }

  /// Resize and refill. Control-plane only: allocates.
  MUTE_RT_UNSAFE void assign(std::size_t length, T v) {
    ensure(length >= 1, "frame history length must be >= 1");
    len_ = length;
    head_ = 0;
    buf_.assign(2 * length, v);
  }

 private:
  std::vector<T> buf_;
  std::size_t len_ = 0;
  std::size_t head_ = 0;
};

}  // namespace mute::dsp
