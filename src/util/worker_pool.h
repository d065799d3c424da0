// A persistent pool of worker threads shared by every parallel phase in the
// harness: `parallel_sweep` grids and the deterministic round engine inside
// SyncSimulator both draw lanes from WorkerPool::shared() instead of paying
// a thread spawn + join per sweep cell or per simulated round.
//
// The execution model is deliberately minimal: run_tasks(T, job) invokes
// job(t) exactly once for every t in [0, T), on the caller plus the pool
// threads, and returns when all T calls have finished.  WHICH physical
// thread runs a given task is unspecified and must be irrelevant — every
// job in this codebase partitions its work by task index and merges results
// in task order, so outputs are identical whether the pool has 64 threads
// or the caller ran every task itself.  That property is also what makes
// the pool safe to use from inside another pool job (a simulator running
// inside a sweep trial): nested run_tasks calls execute their tasks inline
// on the calling worker instead of deadlocking on the pool.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ftss {

class WorkerPool {
 public:
  // A pool with `lanes` execution lanes: lanes - 1 worker threads plus the
  // calling thread, which participates in every batch.  lanes == 0 is
  // treated as 1 (no worker threads; run_tasks executes inline).
  explicit WorkerPool(unsigned lanes);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Current lane count (worker threads + 1).
  unsigned lanes() const;

  // Grow the pool so lanes() >= lanes.  Never shrinks; cheap no-op when
  // already large enough.  Lets a SyncConfig::threads = 8 simulator get
  // real concurrency even when the shared pool was sized to fewer cores.
  // Like the constructor, returns only once every new worker is ready to
  // take part in the next batch.  A no-op when called from inside a pool
  // task, where nested batches run inline anyway.
  void ensure_lanes(unsigned lanes);

  // Contiguous, gap-free, exhaustive split of [0, count) into `tasks`
  // ranges: task t owns [first, second).  Range sizes differ by at most 1,
  // and every index belongs to exactly one task — the partition the round
  // engine and the tests rely on.
  static std::pair<std::size_t, std::size_t> split(std::size_t count,
                                                   std::size_t tasks,
                                                   std::size_t task) {
    return {count * task / tasks, count * (task + 1) / tasks};
  }

  // True while the calling thread is executing a pool task; run_tasks uses
  // it to detect nesting and degrade to inline execution.
  static bool on_pool_thread();

  // Invokes job(t) exactly once for every t in [0, tasks); blocks until
  // every call has returned.  If any tasks threw, the exception of the
  // lowest-indexed throwing task is rethrown on the caller after the batch
  // fully drains (the choice is deterministic, not first-to-fail).
  template <typename Job>
  void run_tasks(std::size_t tasks, Job&& job) {
    if (tasks == 0) return;
    if (tasks == 1 || on_pool_thread()) {
      for (std::size_t t = 0; t < tasks; ++t) job(t);
      return;
    }
    using JobT = std::remove_reference_t<Job>;
    run_batch(
        [](void* ctx, std::size_t t) { (*static_cast<JobT*>(ctx))(t); },
        const_cast<void*>(static_cast<const void*>(std::addressof(job))),
        tasks);
  }

  // Process-wide pool, sized to the hardware at first use (at least one
  // lane).  Function-local static: destroyed after main exits, joining its
  // threads — callers must not run batches from static destructors.
  static WorkerPool& shared();

 private:
  struct Batch;

  // Type-erased core of run_tasks: posts the batch with tasks - 1 seats,
  // participates, closes it once every task is claimed, waits for the
  // seated workers, rethrows the recorded error.
  void run_batch(void (*fn)(void*, std::size_t), void* ctx,
                 std::size_t tasks);
  // Claim loop over a batch's task indices (caller and workers alike).
  static void execute(Batch& batch);
  void worker_main();
  // Spawns workers until lanes() >= lanes, then waits (releasing `lock` on
  // mu_) until every worker has registered.
  void grow_locked(std::unique_lock<std::mutex>& lock, unsigned lanes);

  mutable std::mutex mu_;  // guards everything below
  std::condition_variable work_cv_;  // workers: "a new batch is posted"
  std::condition_variable done_cv_;  // run_batch: "seated workers done"
  std::condition_variable registered_cv_;  // growth: "a worker registered"
  std::vector<std::thread> threads_;
  Batch* batch_ = nullptr;           // non-null while a batch is posted
  std::uint64_t generation_ = 0;     // bumped per batch; workers track it
  unsigned registered_ = 0;          // workers that have entered their loop
  unsigned seats_ = 0;               // workers that may still join the batch
  unsigned seated_ = 0;              // joined workers yet to finish it
  bool stop_ = false;

  // Serializes external run_batch callers (and ensure_lanes) so exactly one
  // batch is in flight at a time.
  std::mutex post_mu_;
};

}  // namespace ftss
