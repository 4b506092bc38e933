#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/rt_annotations.hpp"

namespace mute::core {

/// Cache key for a converged weight vector: which relay the filter was
/// adapted against and which sound profile it cancels. The relay index
/// matters because the weights are relay-specific twice over — the
/// non-causal window is sized to that relay's usable lookahead, and the
/// causal section compensates that relay's acoustic position. A filter
/// converged against relay 2 loaded for relay 0 would replay the wrong
/// alignment, so the axes form one composite key.
struct FilterCacheKey {
  std::size_t relay = 0;
  std::size_t profile = 0;
  bool operator==(const FilterCacheKey&) const = default;
};

struct FilterCacheKeyHash {
  std::size_t operator()(const FilterCacheKey& k) const noexcept {
    // Boost-style mix: profile counts are tiny, so a plain XOR would
    // collide (relay, profile) with (profile, relay).
    std::size_t h = std::hash<std::size_t>{}(k.relay);
    h ^= std::hash<std::size_t>{}(k.profile) + 0x9e3779b97f4a7c15ull +
         (h << 6) + (h >> 2);
    return h;
  }
};

/// Per-(relay, profile) cache of converged adaptive-filter weight vectors
/// (Section 3.2 "Predict and Switch": LANC caches the coefficient vector
/// for each sound profile and reloads it at transitions instead of
/// re-converging by gradient descent). The relay axis extends the same
/// idea to warm-standby failover: handing the association to a standby
/// relay preloads the filter last converged against it, so re-acquisition
/// costs a history refill rather than a gradient descent from cold.
///
/// Lifetime contract for the span returned by `load()`:
///   - it stays valid across `store()` calls for *other* keys, including
///     any rehash those inserts trigger (std::unordered_map never moves
///     node storage on rehash, and the vector's heap buffer moves with
///     its node);
///   - it is invalidated by `store()` on the SAME key (the overwrite may
///     reallocate the vector's buffer) and by `clear()`.
/// Callers that must hold weights across a same-key overwrite must copy.
/// Both hazards are pinned by tests/core/core_test.cpp.
class FilterCache {
 public:
  /// Save (overwrite) the weights for a (relay, profile) pair.
  MUTE_RT_UNSAFE void store(FilterCacheKey key, std::span<const double> weights) {
    cache_[key].assign(weights.begin(), weights.end());
  }

  /// Retrieve the cached weights, if this pair has been seen before. See
  /// the class comment for the returned span's lifetime contract.
  MUTE_RT_SAFE std::optional<std::span<const double>> load(
      FilterCacheKey key) const {
    const auto it = cache_.find(key);
    if (it == cache_.end()) return std::nullopt;
    return std::span<const double>(it->second);
  }

  bool contains(FilterCacheKey key) const { return cache_.count(key) != 0; }

  std::size_t size() const { return cache_.size(); }

 private:
  std::unordered_map<FilterCacheKey, std::vector<double>, FilterCacheKeyHash>
      cache_;
};

}  // namespace mute::core
