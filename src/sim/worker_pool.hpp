#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/function_ref.hpp"

namespace mute::sim {

/// The one scheduler implementation (DESIGN.md §14): a fixed pool of
/// parked worker threads with an atomic-counter work-stealing dispatch.
/// `parallel_sweep` spins up a transient pool per sweep; the fleet runtime
/// keeps one alive for its whole life and dispatches a job per audio
/// block.
///
/// Dispatch contract:
///   - run(count, body) invokes body(0)..body(count-1) exactly once each;
///     the calling thread participates, so a 1-worker pool runs inline
///     with no cross-thread traffic at all.
///   - Indices are claimed from a shared atomic counter: work stealing,
///     because item runtimes vary wildly (scenario sweeps) or moderately
///     (fleet tenant batches) and static chunking would idle fast workers.
///   - The first exception thrown by any body is captured and re-thrown on
///     the calling thread after the job drains; remaining un-started
///     indices are abandoned at the next claim.
///   - No allocation on the dispatch path: the body is a FunctionRef (two
///     words, copied by value into the job slot) and all job state lives
///     in the pool.
///
/// Placement: each helper thread starts on its own CPU of the caller's
/// affinity set (the caller's CPU last) and then gets the caller's whole
/// set back, so lanes run side by side even where the kernel does not
/// balance load (DESIGN.md §14).
///
/// Synchronization: job hand-off and completion go through one mutex +
/// two condition variables; every body(i) therefore happens-after run()'s
/// publication of the job and happens-before run()'s return (the
/// happens-before edge the fleet's per-block tenant hand-off relies on,
/// and the tsan preset verifies).
class WorkerPool {
 public:
  /// A pool of `workers` total lanes: `workers - 1` parked threads plus
  /// the caller of run(). workers == 0 means default_sweep_workers().
  explicit WorkerPool(std::size_t workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t worker_count() const { return workers_; }

  /// Run body(0) .. body(count-1) across the pool; blocks until every
  /// started index completed. Not reentrant (one job at a time).
  void run(std::size_t count, FunctionRef<void(std::size_t)> body);

  /// Run body(lane) exactly once on every lane, lane 0 being the caller
  /// and lanes 1 .. worker_count()-1 the helper threads: for per-thread
  /// state the lanes must hold before any of them claims work. Exceptions
  /// propagate like run()'s. Not reentrant.
  void run_on_each_lane(FunctionRef<void(std::size_t)> body);

 private:
  void worker_loop(std::size_t lane);
  void drain(const FunctionRef<void(std::size_t)>& body);
  void run_guarded(const FunctionRef<void(std::size_t)>& body,
                   std::size_t index);
  void dispatch(std::size_t count, FunctionRef<void(std::size_t)> body,
                bool each_lane);

  std::size_t workers_;
  std::vector<std::thread> threads_;

  std::mutex m_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;      // bumped per job; workers latch it
  std::size_t busy_ = 0;         // helper threads still in the current job
  bool stop_ = false;
  std::optional<FunctionRef<void(std::size_t)>> body_;
  std::size_t count_ = 0;
  bool each_lane_ = false;  // the job runs body(lane) once per lane

  std::atomic<std::size_t> next_{0};
  std::atomic<bool> failed_{false};
  std::mutex error_m_;
  std::exception_ptr first_error_;
};

}  // namespace mute::sim
