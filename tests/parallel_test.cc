#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/predicates.h"
#include "core/round_agreement.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "util/worker_pool.h"

namespace ftss {
namespace {

TEST(ParallelSweep, ResultsOrderedByIndex) {
  auto results = parallel_sweep<std::size_t>(
      100, [](std::size_t i) { return i * i; });
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

TEST(ParallelSweep, EmptyAndSingle) {
  EXPECT_TRUE(parallel_sweep<int>(0, [](std::size_t) { return 1; }).empty());
  auto one = parallel_sweep<int>(1, [](std::size_t) { return 7; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 7);
}

TEST(ParallelSweep, ExplicitThreadCounts) {
  for (unsigned threads : {1u, 2u, 7u, 64u}) {
    auto results = parallel_sweep<std::size_t>(
        37, [](std::size_t i) { return i + 1; }, threads);
    const auto sum = std::accumulate(results.begin(), results.end(),
                                     std::size_t{0});
    EXPECT_EQ(sum, 37u * 38u / 2) << threads;
  }
}

TEST(ParallelSweep, PlainFunctionObjectsWork) {
  // The callable is a template parameter: no std::function wrapper is
  // required (or constructed), so any callable shape works.
  struct Squarer {
    std::size_t operator()(std::size_t i) const { return i * i; }
  };
  auto results = parallel_sweep<std::size_t>(25, Squarer{}, 4);
  for (std::size_t i = 0; i < 25; ++i) EXPECT_EQ(results[i], i * i);
}

TEST(ParallelSweep, ChunkedClaimingCoversEveryIndexExactlyOnce) {
  // Count chosen to not divide evenly by any chunk size so boundary chunks
  // are exercised; every index must be evaluated exactly once.
  for (unsigned threads : {2u, 3u, 8u, 16u}) {
    const std::size_t count = 1013;
    std::vector<std::atomic<int>> hits(count);
    auto results = parallel_sweep<std::size_t>(
        count,
        [&hits](std::size_t i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
          return i;
        },
        threads);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
      EXPECT_EQ(results[i], i);
    }
  }
}

TEST(ParallelSweep, NonTrivialResultsStayOrdered) {
  auto results = parallel_sweep<std::vector<int>>(
      200,
      [](std::size_t i) {
        return std::vector<int>(i % 7 + 1, static_cast<int>(i));
      },
      8);
  for (std::size_t i = 0; i < 200; ++i) {
    ASSERT_EQ(results[i].size(), i % 7 + 1);
    EXPECT_EQ(results[i].front(), static_cast<int>(i));
  }
}

// Satellite regression for the claim loop: the counter advances by CAS to
// min(count, begin + chunk), so the boundary where the tail is one short of
// (or one past) a whole number of chunks must still cover every index
// exactly once.  chunk = max(1, count / (8 * workers)), so count =
// 8 * workers * chunk makes the grid divide evenly and ±1 exercises both
// ragged tails.
TEST(ParallelSweep, ChunkBoundaryCountsCoverExactlyOnce) {
  for (unsigned workers : {2u, 4u, 8u}) {
    const std::size_t chunk = 5;
    const std::size_t even = 8 * workers * chunk;
    for (const std::size_t count : {even - 1, even, even + 1}) {
      std::vector<std::atomic<int>> hits(count);
      auto results = parallel_sweep<std::size_t>(
          count,
          [&hits](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
            return i;
          },
          workers);
      ASSERT_EQ(results.size(), count);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "i=" << i << " count=" << count << " workers=" << workers;
        ASSERT_EQ(results[i], i);
      }
    }
  }
}

TEST(WorkerPool, SplitIsContiguousExhaustiveAndBalanced) {
  for (std::size_t count : {0u, 1u, 7u, 64u, 1013u}) {
    for (std::size_t tasks : {1u, 2u, 3u, 8u, 64u}) {
      std::size_t expect_begin = 0;
      for (std::size_t t = 0; t < tasks; ++t) {
        const auto [begin, end] = WorkerPool::split(count, tasks, t);
        EXPECT_EQ(begin, expect_begin) << count << "/" << tasks << "/" << t;
        EXPECT_LE(begin, end);
        // Balanced: no range is more than one larger than another.
        EXPECT_LE(end - begin, count / tasks + 1);
        expect_begin = end;
      }
      EXPECT_EQ(expect_begin, count);
    }
  }
}

TEST(WorkerPool, RunTasksInvokesEachTaskExactlyOnce) {
  WorkerPool pool(4);
  for (std::size_t tasks : {0u, 1u, 3u, 4u, 17u, 100u}) {
    std::vector<std::atomic<int>> hits(tasks);
    pool.run_tasks(tasks, [&](std::size_t t) {
      hits[t].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t t = 0; t < tasks; ++t) {
      EXPECT_EQ(hits[t].load(), 1) << "tasks=" << tasks << " t=" << t;
    }
  }
}

// 10^4 back-to-back batches of 1 to 8 tasks on a 4-lane pool, sizes
// alternating above and below the worker count: each task runs exactly
// once, and its result is in place when run_tasks returns.  Under TSan this
// also checks that a worker waking after a batch has returned never touches
// that batch, which lived on the caller's stack.
TEST(WorkerPool, ManySmallBatchesRunEachTaskOnce) {
  WorkerPool pool(4);
  constexpr std::size_t kMaxTasks = 8;
  std::vector<std::atomic<int>> hits(kMaxTasks);
  std::vector<std::size_t> results(kMaxTasks);
  for (std::size_t batch = 0; batch < 10000; ++batch) {
    const std::size_t tasks = batch * 5 % kMaxTasks + 1;
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    pool.run_tasks(tasks, [&](std::size_t t) {
      hits[t].fetch_add(1, std::memory_order_relaxed);
      results[t] = batch * kMaxTasks + t;
    });
    for (std::size_t t = 0; t < kMaxTasks; ++t) {
      ASSERT_EQ(hits[t].load(), t < tasks ? 1 : 0)
          << "batch " << batch << " of " << tasks << " tasks, t=" << t;
      if (t < tasks) {
        ASSERT_EQ(results[t], batch * kMaxTasks + t);
      }
    }
  }
}

TEST(WorkerPool, EnsureLanesGrowsAndNeverShrinks) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.lanes(), 1u);
  pool.ensure_lanes(4);
  EXPECT_EQ(pool.lanes(), 4u);
  pool.ensure_lanes(2);  // no-op: never shrinks
  EXPECT_EQ(pool.lanes(), 4u);
  // Grown lanes still run batches to completion.
  std::atomic<int> total{0};
  pool.run_tasks(64, [&](std::size_t) {
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 64);
}

// A batch posted the moment the constructor returns must already count every
// worker in.  Each of the two tasks waits for the other to start, so the
// batch can only finish quickly if two threads run it at once; a pool whose
// worker had not yet registered would leave the caller running both tasks in
// turn, and the first task's wait would time out.
TEST(WorkerPool, FirstBatchOnFreshPoolUsesEveryLane) {
  for (int repeat = 0; repeat < 4; ++repeat) {
    WorkerPool pool(2);
    std::mutex mu;
    std::condition_variable cv;
    int started = 0;
    int saw_both = 0;
    pool.run_tasks(2, [&](std::size_t) {
      std::unique_lock<std::mutex> lock(mu);
      ++started;
      cv.notify_all();
      if (cv.wait_for(lock, std::chrono::seconds(5),
                      [&] { return started == 2; })) {
        ++saw_both;
      }
    });
    EXPECT_EQ(saw_both, 2) << "repeat " << repeat
                           << ": the two tasks did not run concurrently";
  }
}

// ensure_lanes called from inside a batch — what a multi-lane simulator
// built in a parallel_sweep trial does — must return at once instead of
// waiting for the lock the posting batch holds.  The batch runs on a helper
// thread with a bounded wait, so a regression fails here instead of hanging
// the suite.
TEST(WorkerPool, EnsureLanesInsideBatchReturns) {
  WorkerPool& pool = WorkerPool::shared();
  const unsigned before = pool.lanes();
  std::promise<void> finished;
  std::future<void> done = finished.get_future();
  std::thread helper([&] {
    pool.run_tasks(4, [&](std::size_t) { pool.ensure_lanes(before + 2); });
    finished.set_value();
  });
  if (done.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    ADD_FAILURE() << "ensure_lanes inside a batch did not return";
    std::fflush(stdout);
    // The helper and the shared pool are wedged, so joining either would
    // hang; leave without unwinding or static teardown.
    std::_Exit(1);
  }
  helper.join();
  EXPECT_EQ(pool.lanes(), before) << "a nested ensure_lanes grew the pool";
}

TEST(WorkerPool, NestedRunTasksExecutesInline) {
  WorkerPool pool(4);
  EXPECT_FALSE(WorkerPool::on_pool_thread());
  std::vector<std::atomic<int>> outer_hits(8);
  pool.run_tasks(8, [&](std::size_t t) {
    EXPECT_TRUE(WorkerPool::on_pool_thread());
    // A nested batch must not deadlock on the busy pool; it runs inline on
    // this worker, sequentially and in task order.
    std::vector<std::size_t> order;
    WorkerPool::shared().run_tasks(3, [&](std::size_t inner) {
      order.push_back(inner);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
    outer_hits[t].fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_FALSE(WorkerPool::on_pool_thread());
  for (auto& h : outer_hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPool, LowestIndexedExceptionWinsDeterministically) {
  WorkerPool pool(4);
  // Tasks 3..15 all throw; whichever thread gets there first, the rethrown
  // error must be task 3's (lowest index), so failures are reproducible.
  for (int repeat = 0; repeat < 8; ++repeat) {
    try {
      pool.run_tasks(16, [](std::size_t t) {
        if (t >= 3) throw std::runtime_error("task " + std::to_string(t));
      });
      FAIL() << "batch with throwing tasks did not rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3");
    }
  }
  // The pool survives a throwing batch: the next one runs normally.
  std::atomic<int> total{0};
  pool.run_tasks(16, [&](std::size_t) {
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ParallelSweep, SimulationsAreIndependentAcrossThreads) {
  // The same seeded simulation run in parallel lanes must yield the same
  // stabilization measurement as sequentially — simulations share nothing.
  auto run_one = [](std::size_t i) -> Round {
    SyncSimulator sim(SyncConfig{.seed = i + 1, .record_states = false},
                      ftss::testing::round_agreement_system(4));
    Value s;
    s["c"] = Value(static_cast<std::int64_t>(1000 + i));
    sim.corrupt_state(0, s);
    sim.run_rounds(20);
    return measure_round_agreement(sim.history()).time().value_or(-1);
  };
  auto parallel = parallel_sweep<Round>(16, run_one, 8);
  auto sequential = parallel_sweep<Round>(16, run_one, 1);
  EXPECT_EQ(parallel, sequential);
  for (Round t : parallel) EXPECT_EQ(t, 1);
}

}  // namespace
}  // namespace ftss
