#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/function_ref.hpp"

namespace mute::sim {

/// The one scheduler implementation (DESIGN.md §14): a fixed pool of
/// worker threads with lane-affine, work-stealing dispatch.
/// `parallel_sweep` spins up a transient pool per sweep; the fleet runtime
/// keeps one alive for its whole life and dispatches a job per audio
/// block.
///
/// Dispatch contract:
///   - run(count, body) invokes body(0)..body(count-1) exactly once each;
///     the calling thread participates, so a 1-worker pool runs inline
///     with no cross-thread traffic at all.
///   - Each job's index range is cut into one contiguous slice per lane:
///     lane l owns [l*count/W, (l+1)*count/W) of W lanes, the caller being
///     lane 0. A lane claims from its own slice first, through that
///     slice's atomic cursor (one cache line per lane), and only then
///     steals from the other slices in lane order. A schedule that is
///     stable across jobs (the fleet's profile-major tenant order) thus
///     runs each index on the same lane job after job, keeping its state
///     in that core's cache, while stealing still evens out item runtimes
///     that vary wildly (scenario sweeps) or moderately (selection rounds
///     inside fleet blocks).
///   - The first exception thrown by any body is captured and re-thrown on
///     the calling thread after the job drains; remaining un-started
///     indices are abandoned at the next claim.
///   - No allocation on the dispatch path: the body is a FunctionRef (two
///     words, referenced from the job state) and all job state lives in
///     the pool.
///
/// Placement: each helper thread starts on its own CPU of the caller's
/// affinity set (the caller's CPU last) and then gets the caller's whole
/// set back, so lanes run side by side even where the kernel does not
/// balance load (DESIGN.md §14).
///
/// Synchronization: a job is published by a release increment of an
/// atomic epoch, and completion is an atomic count of helpers still in the
/// job, brought to zero by acq_rel decrements the caller acquires. So
/// every body(i) happens-after run()'s publication of the job and
/// happens-before run()'s return (the edge the fleet's per-block tenant
/// hand-off relies on, and the tsan preset verifies). Helpers waiting for
/// a job and the caller waiting for the helpers first poll for
/// kPollWindow, then park in atomic::wait; back-to-back jobs therefore
/// never put a lane to sleep, and an idle pool costs no CPU.
class WorkerPool {
 public:
  /// How long a waiting lane polls before it parks. Chosen from a sweep
  /// of bench/e2e fine_block_1relay (DESIGN.md §14): capacity stops
  /// growing past about 20 us, while the CPU per device-sample, which
  /// counts the polling, keeps growing with the window.
  static constexpr std::chrono::microseconds kPollWindow{20};

  /// A pool of `workers` total lanes: `workers - 1` helper threads plus
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
  /// One lane's share of a job: the next unclaimed index of the slice and
  /// its end. On its own cache line, so a lane claiming from its own slice
  /// touches no line another lane writes unless that lane is stealing.
  struct alignas(64) Slice {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };

  void worker_loop(std::size_t lane);
  void drain(std::size_t lane);
  void run_guarded(std::size_t index);
  void dispatch(std::size_t count, const FunctionRef<void(std::size_t)>& body,
                bool each_lane);

  std::size_t workers_;
  std::vector<std::thread> threads_;
  std::vector<Slice> slices_;  // one per lane

  // Written by dispatch() before the epoch's release increment, read by
  // the helpers after they acquire it; constant while a job runs.
  const FunctionRef<void(std::size_t)>* body_ = nullptr;
  bool each_lane_ = false;  // the job runs body(lane) once per lane
  bool stop_ = false;

  alignas(64) std::atomic<std::uint32_t> epoch_{0};  // bumped per job
  alignas(64) std::atomic<std::uint32_t> busy_{0};   // helpers in the job

  std::atomic<bool> failed_{false};
  std::mutex error_m_;
  std::exception_ptr first_error_;
};

}  // namespace mute::sim
