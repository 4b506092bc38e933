#include "sim/worker_pool.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>

#include "common/error.hpp"
#include "sim/parallel_sweep.hpp"

namespace mute::sim {

namespace {

// The CPUs helper lanes start on, in order: every CPU the calling thread
// may run on, beginning after the one it runs on now, so the caller's own
// CPU comes last. Empty where the platform gives no placement control.
std::vector<int> helper_start_cpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  const int home = std::max(sched_getcpu(), 0);
  for (int k = 1; k <= CPU_SETSIZE; ++k) {
    const int cpu = (home + k) % CPU_SETSIZE;
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
#endif
  return cpus;
}

// Moves the calling thread onto `cpu`, then gives back every CPU it was
// allowed. A new thread starts on its creator's CPU, and a kernel that
// does not balance load (a cpuset with sched_load_balance off) wakes a
// parked thread where it last ran, so without this every lane can stay on
// the caller's CPU for the pool's whole life and the lanes take turns on
// it. With balancing on, this is only a starting point.
void start_on(int cpu) {
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) == 0) {
    sched_setaffinity(0, sizeof(allowed), &allowed);
  }
#else
  (void)cpu;
#endif
}

}  // namespace

WorkerPool::WorkerPool(std::size_t workers)
    : workers_(workers == 0 ? default_sweep_workers() : workers) {
  if (workers_ < 1) workers_ = 1;
  threads_.reserve(workers_ - 1);
  const std::vector<int> cpus =
      workers_ > 1 ? helper_start_cpus() : std::vector<int>{};
  for (std::size_t w = 1; w < workers_; ++w) {
    const int cpu = cpus.empty() ? -1 : cpus[(w - 1) % cpus.size()];
    threads_.emplace_back([this, cpu, w] {
      if (cpu >= 0) start_on(cpu);
      worker_loop(w);
    });
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(m_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

// body(index), keeping the first exception any lane throws for the
// caller; failed_ then stops further claims.
void WorkerPool::run_guarded(const FunctionRef<void(std::size_t)>& body,
                             std::size_t index) {
  try {
    body(index);
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(error_m_);
      if (first_error_ == nullptr) first_error_ = std::current_exception();
    }
    failed_.store(true, std::memory_order_release);
  }
}

void WorkerPool::drain(const FunctionRef<void(std::size_t)>& body) {
  while (!failed_.load(std::memory_order_acquire)) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count_) return;
    run_guarded(body, i);
  }
}

void WorkerPool::worker_loop(std::size_t lane) {
  std::uint64_t seen = 0;
  for (;;) {
    std::optional<FunctionRef<void(std::size_t)>> body;
    bool each_lane = false;
    {
      std::unique_lock<std::mutex> lock(m_);
      cv_work_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      body.emplace(*body_);  // two-word copy under the lock, no allocation
      each_lane = each_lane_;
    }
    if (each_lane) {
      run_guarded(*body, lane);
    } else {
      drain(*body);
    }
    {
      const std::lock_guard<std::mutex> lock(m_);
      if (--busy_ == 0) cv_done_.notify_one();
    }
  }
}

void WorkerPool::run(std::size_t count,
                     FunctionRef<void(std::size_t)> body) {
  if (count == 0) return;
  if (threads_.empty() || count == 1) {
    // Inline fast path: no fences, no wakeups; used by 1-worker pools and
    // single-item jobs (the calling thread would claim everything anyway).
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  dispatch(count, body, /*each_lane=*/false);
}

void WorkerPool::run_on_each_lane(FunctionRef<void(std::size_t)> body) {
  // Every helper runs one pass of worker_loop per job, and the next job
  // waits for all of them, so each lane sees the body exactly once.
  dispatch(workers_, body, /*each_lane=*/true);
}

void WorkerPool::dispatch(std::size_t count,
                          FunctionRef<void(std::size_t)> body,
                          bool each_lane) {
  {
    const std::lock_guard<std::mutex> lock(m_);
    ensure(body_ == std::nullopt, "WorkerPool::run is not reentrant");
    body_.emplace(body);
    count_ = count;
    each_lane_ = each_lane;
    next_.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    first_error_ = nullptr;
    busy_ = threads_.size();
    ++epoch_;
  }
  cv_work_.notify_all();
  // The calling thread is a full worker (lane 0).
  if (each_lane) {
    run_guarded(body, 0);
  } else {
    drain(body);
  }
  {
    std::unique_lock<std::mutex> lock(m_);
    cv_done_.wait(lock, [&] { return busy_ == 0; });
    body_.reset();
  }
  if (first_error_ != nullptr) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace mute::sim
