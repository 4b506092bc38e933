#include "sim/parallel_sweep.hpp"

#include <cstdlib>
#include <thread>

#include "sim/worker_pool.hpp"

namespace mute::sim {

std::size_t default_sweep_workers() {
  if (const char* env = std::getenv("MUTE_SWEEP_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

namespace detail {

void parallel_for_index(std::size_t count, std::size_t workers,
                        FunctionRef<void(std::size_t)> body) {
  if (count == 0) return;
  if (workers == 0) workers = default_sweep_workers();
  if (workers > count) workers = count;

  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  WorkerPool pool(workers);  // transient: workers-1 threads for this sweep
  pool.run(count, body);
}

}  // namespace detail

}  // namespace mute::sim
