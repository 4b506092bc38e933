#include "sim/worker_pool.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <chrono>

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

// Spins until pred() holds or kPollWindow has passed; returns pred().
template <typename Pred>
bool poll(const Pred& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + WorkerPool::kPollWindow;
  for (;;) {
    for (int k = 0; k < 32; ++k) {
      if (pred()) return true;
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
    if (std::chrono::steady_clock::now() >= deadline) return pred();
  }
}

// Waits until `value` no longer reads `old` (polling, then parked) and
// returns what it reads, acquiring the store that changed it.
std::uint32_t await_change(const std::atomic<std::uint32_t>& value,
                           std::uint32_t old) {
  poll([&] { return value.load(std::memory_order_acquire) != old; });
  value.wait(old, std::memory_order_acquire);
  return value.load(std::memory_order_acquire);
}

}  // namespace

WorkerPool::WorkerPool(std::size_t workers)
    : workers_(std::max<std::size_t>(
          workers == 0 ? default_sweep_workers() : workers, 1)),
      slices_(workers_) {
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
  stop_ = true;
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (auto& t : threads_) t.join();
}

// body(index), keeping the first exception any lane throws for the
// caller; failed_ then stops further claims.
void WorkerPool::run_guarded(std::size_t index) {
  try {
    (*body_)(index);
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(error_m_);
      if (first_error_ == nullptr) first_error_ = std::current_exception();
    }
    failed_.store(true, std::memory_order_release);
  }
}

// Claims from the lane's own slice, then from the others in lane order.
// A cursor only grows, so an exhausted slice stays exhausted however many
// lanes overshoot its end.
void WorkerPool::drain(std::size_t lane) {
  for (std::size_t k = 0; k < workers_; ++k) {
    Slice& slice = slices_[(lane + k) % workers_];
    for (;;) {
      if (failed_.load(std::memory_order_acquire)) return;
      const std::size_t i = slice.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= slice.end) break;
      run_guarded(i);
    }
  }
}

void WorkerPool::worker_loop(std::size_t lane) {
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_change(epoch_, seen);
    if (stop_) return;
    if (each_lane_) {
      run_guarded(lane);
    } else {
      drain(lane);
    }
    if (busy_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      busy_.notify_one();
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
                          const FunctionRef<void(std::size_t)>& body,
                          bool each_lane) {
  ensure(body_ == nullptr, "WorkerPool::run is not reentrant");
  body_ = &body;
  each_lane_ = each_lane;
  // Lane l's slice is [l*count/W, (l+1)*count/W), with l*count/W written
  // so that it cannot overflow.
  const auto slice_begin = [&](std::size_t l) {
    return l * (count / workers_) + l * (count % workers_) / workers_;
  };
  for (std::size_t l = 0; l < workers_; ++l) {
    slices_[l].next.store(slice_begin(l), std::memory_order_relaxed);
    slices_[l].end = slice_begin(l + 1);
  }
  failed_.store(false, std::memory_order_relaxed);
  first_error_ = nullptr;
  const auto helpers = static_cast<std::uint32_t>(threads_.size());
  busy_.store(helpers, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  // The calling thread is a full worker (lane 0).
  if (each_lane) {
    run_guarded(0);
  } else {
    drain(0);
  }
  for (std::uint32_t left = helpers; left != 0;) {
    left = await_change(busy_, left);
  }
  body_ = nullptr;
  if (first_error_ != nullptr) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace mute::sim
