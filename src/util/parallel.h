// Deterministic parallel sweeps.
//
// Benchmark and test grids run many independent seeded simulations; this
// helper fans them out across the shared WorkerPool while keeping results
// ordered by index, so aggregate output is identical to a sequential run.
// Sweeps used to spawn (and join) their own threads per call, which charged
// every grid cell a thread-creation tax; they now borrow lanes from
// WorkerPool::shared(), the same persistent pool the SyncSimulator round
// engine uses.  Simulations may themselves be parallel (SyncConfig::threads)
// — determinism is preserved at both levels, and a simulator running inside
// a sweep trial runs its lanes inline via the pool's nested-call inlining.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/worker_pool.h"

namespace ftss {

// Evaluates fn(i) for i in [0, count) on up to `threads` logical workers
// (0 = one per pool lane) and returns the results ordered by i.
//
// The callable is a template parameter, not a std::function: sweep bodies
// are called count times and the per-call indirection (plus the capture
// allocation at every sweep) is measurable on fine-grained grids, and a
// template parameter lets the compiler inline the body into the worker loop.
//
// Workers claim chunks of indices rather than single indices (one atomic
// claim per chunk instead of per call), and each worker writes its results
// into a cache-line-aligned private lane that is merged after the batch —
// two workers never store into the same cache line of the shared result
// array mid-sweep, so small Result types do not false-share.
//
// The claim counter advances by CAS to min(count, begin + chunk), never by
// a blind fetch_add: the counter itself can therefore never pass count,
// even when the tail is smaller than a chunk.  (The previous fetch_add
// loop was bounds-safe — a `begin < count` guard kept every executed index
// in range — but it published claim values past count; the boundary tests
// in parallel_test.cc pin the clamped behavior at count = workers·chunk±1.)
template <typename Result, typename Fn>
std::vector<Result> parallel_sweep(std::size_t count, Fn&& fn,
                                   unsigned threads = 0) {
  std::vector<Result> results(count);
  if (count == 0) return results;
  WorkerPool& pool = WorkerPool::shared();
  unsigned worker_count = threads != 0 ? threads : pool.lanes();
  worker_count =
      static_cast<unsigned>(std::min<std::size_t>(worker_count, count));

  if (worker_count <= 1) {
    for (std::size_t i = 0; i < count; ++i) results[i] = fn(i);
    return results;
  }

  // Small enough that a slow outlier chunk cannot idle the other workers
  // for long, large enough that claim traffic stays negligible.
  const std::size_t chunk =
      std::max<std::size_t>(1, count / (8 * worker_count));

  struct alignas(64) Lane {
    std::vector<std::pair<std::size_t, Result>> out;
  };
  std::vector<Lane> lanes(worker_count);

  std::atomic<std::size_t> next{0};
  pool.run_tasks(worker_count, [&](std::size_t w) {
    auto& out = lanes[w].out;
    std::size_t begin = next.load(std::memory_order_relaxed);
    while (begin < count) {
      const std::size_t end = std::min(count, begin + chunk);
      if (next.compare_exchange_weak(begin, end,
                                     std::memory_order_relaxed)) {
        for (std::size_t i = begin; i < end; ++i) {
          out.emplace_back(i, fn(i));
        }
        begin = next.load(std::memory_order_relaxed);
      }
      // On CAS failure `begin` has been reloaded with the current claim.
    }
  });

  for (auto& lane : lanes) {
    for (auto& [i, r] : lane.out) results[i] = std::move(r);
  }
  return results;
}

}  // namespace ftss
