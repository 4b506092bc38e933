#pragma once

#include <cstddef>
#include <type_traits>
#include <vector>

#include "common/function_ref.hpp"

namespace mute::sim {

/// Worker count used when a sweep asks for `workers == 0`: the
/// MUTE_SWEEP_THREADS environment variable when set (>= 1), otherwise
/// std::thread::hardware_concurrency() (>= 1).
std::size_t default_sweep_workers();

namespace detail {

/// Run body(0) .. body(count-1) across a temporary pool of `workers`
/// threads (0 = default_sweep_workers(); the calling thread participates,
/// so workers == 1 runs inline with no thread machinery): parallel_sweep's
/// engine. Scheduling (work stealing, first-exception rethrow,
/// abandonment of un-started indices after a failure) is WorkerPool's
/// dispatch contract (sim/worker_pool.hpp), the one claiming/draining
/// implementation in the tree.
void parallel_for_index(std::size_t count, std::size_t workers,
                        FunctionRef<void(std::size_t)> body);

}  // namespace detail

/// Map fn over [0, count) concurrently and return the results IN INDEX
/// ORDER — the parallel replacement for the figure benches' serial
/// scenario loops, and the one public parallel entry point. It runs on a
/// temporary pool of `workers` threads (0 = default_sweep_workers(); the
/// calling thread participates, so workers == 1 or count == 1 runs inline
/// with no thread machinery).
///
/// Determinism contract (DESIGN.md §10): the bodies of one sweep must be
/// independent — each index derives everything it needs (RNG seeds
/// included) from its own arguments and touches only its own result.
/// Under that contract the sweep is bit-deterministic: results depend only
/// on the index, never on thread count or interleaving. The contract is
/// what the simulation library already guarantees (seeded per-scenario
/// RNGs, no mutable globals) and the tsan preset verifies. `fn` must be
/// safe to invoke concurrently from several threads (a lambda capturing
/// only const/immutable state qualifies); the first exception it throws
/// re-throws on the caller.
///
/// Each body move-assigns its result straight into out[i] — no staging
/// buffer, no second pass of copies — so R must be default-constructible
/// and move-assignable.
template <typename Fn>
auto parallel_sweep(std::size_t count, Fn&& fn, std::size_t workers = 0)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  static_assert(std::is_default_constructible_v<R> &&
                    std::is_move_assignable_v<R>,
                "parallel_sweep results must be default-constructible and "
                "move-assignable");
  std::vector<R> out(count);
  detail::parallel_for_index(count, workers,
                             [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace mute::sim
