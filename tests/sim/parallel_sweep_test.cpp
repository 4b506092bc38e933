// sim::parallel_sweep (DESIGN.md §10): ordered results, thread-count
// invariance under the determinism contract, exception propagation, and
// edge counts; and the WorkerPool dispatch it runs on (every index exactly
// once, once per lane, lane placement). The same tests run under the tsan preset to prove
// the runner itself is race-free.
#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <atomic>
#include <cstddef>
#include <latch>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "sim/parallel_sweep.hpp"
#include "sim/worker_pool.hpp"

namespace {

using namespace mute;

TEST(ParallelSweep, ResultsComeBackInIndexOrder) {
  for (const std::size_t workers : {1UL, 2UL, 4UL, 9UL}) {
    const auto out = sim::parallel_sweep(
        100, [](std::size_t i) { return i * i; }, workers);
    ASSERT_EQ(out.size(), 100U);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], i * i) << "workers=" << workers;
    }
  }
}

TEST(ParallelSweep, ThreadCountDoesNotChangeResults) {
  // Contract-conforming body: everything, including the RNG, derives from
  // the index. More workers than scenarios exercises the clamp.
  const auto scenario = [](std::size_t i) {
    Rng rng(static_cast<unsigned>(1000 + i));
    double acc = 0.0;
    for (int t = 0; t < 5000; ++t) acc += rng.gaussian() * 1e-3;
    return acc;
  };
  const auto serial = sim::parallel_sweep(12, scenario, 1);
  for (const std::size_t workers : {2UL, 4UL, 32UL}) {
    const auto parallel = sim::parallel_sweep(12, scenario, workers);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i], serial[i])
          << "workers=" << workers << " i=" << i;  // bit-identical
    }
  }
}

TEST(ParallelSweep, CountZeroIsANoOp) {
  const auto out =
      sim::parallel_sweep(0, [](std::size_t i) { return i; }, 4);
  EXPECT_TRUE(out.empty());
}

TEST(ParallelSweep, SingleElementRunsInline) {
  const auto out =
      sim::parallel_sweep(1, [](std::size_t i) { return i + 7; }, 8);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(out[0], 7U);
}

TEST(ParallelSweep, FirstExceptionPropagatesToCaller) {
  for (const std::size_t workers : {1UL, 4UL}) {
    EXPECT_THROW(
        sim::parallel_sweep(
            64,
            [](std::size_t i) -> int {
              if (i == 13) throw std::runtime_error("scenario 13 failed");
              return static_cast<int>(i);
            },
            workers),
        std::runtime_error)
        << "workers=" << workers;
  }
}

TEST(ParallelSweep, AbandonsRemainingWorkAfterFailure) {
  // After a body throws, un-started indices must not run: the started
  // count stays well below the total. Every other body waits on a latch
  // that index 0 opens while its exception unwinds, so no worker can drain
  // the range while the failing one is still unscheduled; only claims made
  // between the unwind and the pool recording the failure can follow.
  std::atomic<std::size_t> started{0};
  std::latch failing{1};
  struct OpenOnUnwind {
    std::latch& latch;
    ~OpenOnUnwind() { latch.count_down(); }
  };
  try {
    sim::parallel_sweep(
        10000,
        [&](std::size_t i) {
          started.fetch_add(1, std::memory_order_relaxed);
          if (i == 0) {
            const OpenOnUnwind open{failing};
            throw std::runtime_error("early failure");
          }
          failing.wait();
          return i;
        },
        4);
    FAIL() << "expected the exception to propagate";
  } catch (const std::runtime_error&) {
  }
  EXPECT_LT(started.load(), 10000U);
}

TEST(WorkerPool, CoversEveryIndexExactlyOnce) {
  for (const std::size_t workers : {1UL, 3UL, 8UL}) {
    std::vector<std::atomic<int>> hits(257);
    sim::WorkerPool pool(workers);
    pool.run(hits.size(), [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " i=" << i;
    }
  }
}

TEST(WorkerPool, RunOnEachLaneRunsOnceOnEveryLaneThread) {
  // No latch in the body: the call itself must hand every lane exactly
  // one run, even when one lane could have finished them all, and it must
  // keep doing so between ordinary jobs.
  for (const std::size_t workers : {1UL, 3UL, 4UL}) {
    sim::WorkerPool pool(workers);
    for (int pass = 0; pass < 3; ++pass) {
      std::vector<std::atomic<int>> hits(workers);
      std::vector<std::thread::id> thread_of(workers);
      pool.run_on_each_lane([&](std::size_t lane) {
        ASSERT_LT(lane, workers);
        hits[lane].fetch_add(1, std::memory_order_relaxed);
        thread_of[lane] = std::this_thread::get_id();
      });
      for (std::size_t lane = 0; lane < workers; ++lane) {
        EXPECT_EQ(hits[lane].load(), 1)
            << "workers=" << workers << " lane=" << lane;
      }
      EXPECT_EQ(thread_of[0], std::this_thread::get_id());
      const std::set<std::thread::id> distinct(thread_of.begin(),
                                               thread_of.end());
      EXPECT_EQ(distinct.size(), workers) << "workers=" << workers;
      pool.run(16, [](std::size_t) {});
    }
  }
}

#if defined(__linux__)
TEST(WorkerPool, LanesKeepTheCallersCpuSet) {
  // The pool starts each helper lane on a CPU of its own and then gives
  // the lane back every CPU the caller may use: the start is a placement
  // hint, never a pin.
  cpu_set_t caller;
  CPU_ZERO(&caller);
  ASSERT_EQ(sched_getaffinity(0, sizeof(caller), &caller), 0);
  constexpr std::size_t kWorkers = 4;
  // Each body waits until all four run at once, so every lane runs one.
  std::latch all_running(kWorkers);
  std::mutex m;
  std::set<std::thread::id> lanes;
  std::atomic<int> same_set{0};
  sim::WorkerPool pool(kWorkers);
  pool.run(kWorkers, [&](std::size_t) {
    all_running.arrive_and_wait();
    cpu_set_t mine;
    CPU_ZERO(&mine);
    if (sched_getaffinity(0, sizeof(mine), &mine) == 0 &&
        CPU_EQUAL(&mine, &caller)) {
      same_set.fetch_add(1, std::memory_order_relaxed);
    }
    const std::lock_guard<std::mutex> lock(m);
    lanes.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(lanes.size(), kWorkers);
  EXPECT_EQ(same_set.load(), static_cast<int>(kWorkers));
}
#endif

TEST(ParallelSweep, DefaultWorkersHonorsEnvOverride) {
  // MUTE_SWEEP_THREADS is read per call, so the override is testable
  // without re-execing the binary.
  ASSERT_EQ(setenv("MUTE_SWEEP_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(sim::default_sweep_workers(), 3U);
  ASSERT_EQ(setenv("MUTE_SWEEP_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(sim::default_sweep_workers(), 1U);  // falls back to hardware
  ASSERT_EQ(unsetenv("MUTE_SWEEP_THREADS"), 0);
  EXPECT_GE(sim::default_sweep_workers(), 1U);
}

}  // namespace
