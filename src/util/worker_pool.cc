#include "util/worker_pool.h"

#include <algorithm>
#include <limits>

namespace ftss {

namespace {
thread_local bool tl_on_pool_thread = false;
}  // namespace

// One posted batch.  Lives on the posting caller's stack; a worker reads
// the pointer only while taking a seat under mu_, holds it only until it
// reports done, and run_batch does not return until every seated worker
// has reported.
struct WorkerPool::Batch {
  void (*fn)(void*, std::size_t) = nullptr;
  void* ctx = nullptr;
  std::size_t tasks = 0;
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr error;
  std::size_t error_task = std::numeric_limits<std::size_t>::max();
};

WorkerPool::WorkerPool(unsigned lanes) {
  std::unique_lock<std::mutex> lock(mu_);
  grow_locked(lock, lanes);
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

unsigned WorkerPool::lanes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<unsigned>(threads_.size()) + 1;
}

void WorkerPool::ensure_lanes(unsigned lanes) {
  // Inside a task the posting run_batch holds post_mu_ for the whole batch,
  // so taking it here would deadlock; and nested run_tasks calls run
  // inline, so there is nothing to grow for.
  if (on_pool_thread()) return;
  // post_mu_ keeps growth out of any in-flight batch, so the next batch
  // is posted only once every new worker is waiting for it.
  std::lock_guard<std::mutex> serialize(post_mu_);
  std::unique_lock<std::mutex> lock(mu_);
  grow_locked(lock, lanes);
}

void WorkerPool::grow_locked(std::unique_lock<std::mutex>& lock,
                             unsigned lanes) {
  while (threads_.size() + 1 < lanes) {
    threads_.emplace_back([this] { worker_main(); });
  }
  // Return only once every worker is registered: run_batch offers seats
  // only to registered workers, so a batch posted right after growth would
  // otherwise leave the unregistered ones out and run on fewer lanes.
  registered_cv_.wait(lock, [&] { return registered_ == threads_.size(); });
}

bool WorkerPool::on_pool_thread() { return tl_on_pool_thread; }

void WorkerPool::execute(Batch& batch) {
  for (;;) {
    const std::size_t t = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (t >= batch.tasks) return;
    try {
      batch.fn(batch.ctx, t);
    } catch (...) {
      std::lock_guard<std::mutex> lock(batch.err_mu);
      if (t < batch.error_task) {
        batch.error_task = t;
        batch.error = std::current_exception();
      }
    }
  }
}

void WorkerPool::worker_main() {
  tl_on_pool_thread = true;
  std::unique_lock<std::mutex> lock(mu_);
  // A worker that registers before a batch is posted sees its generation
  // bump; one that registers after adopts the current generation and waits
  // for the next batch.
  std::uint64_t seen = generation_;
  ++registered_;
  registered_cv_.notify_all();
  for (;;) {
    // A batch with no seat left (full, or closed by its caller) is never
    // touched: only a seated worker reads batch_.
    work_cv_.wait(lock,
                  [&] { return stop_ || (seats_ > 0 && generation_ != seen); });
    if (stop_) return;
    seen = generation_;
    --seats_;
    ++seated_;
    Batch* batch = batch_;
    lock.unlock();
    execute(*batch);
    lock.lock();
    if (--seated_ == 0) done_cv_.notify_one();
  }
}

void WorkerPool::run_batch(void (*fn)(void*, std::size_t), void* ctx,
                           std::size_t tasks) {
  std::lock_guard<std::mutex> serialize(post_mu_);
  Batch batch;
  batch.fn = fn;
  batch.ctx = ctx;
  batch.tasks = tasks;
  unsigned seats = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch_ = &batch;
    ++generation_;
    // The caller runs one lane itself, so at most tasks - 1 workers join:
    // a two-task batch wakes one worker, not the whole pool.
    seats = static_cast<unsigned>(
        std::min<std::size_t>(tasks - 1, registered_));
    seats_ = seats;
  }
  for (unsigned i = 0; i < seats; ++i) work_cv_.notify_one();
  // The caller is lane material too: claim tasks until none remain.
  tl_on_pool_thread = true;
  execute(batch);
  tl_on_pool_thread = false;
  {
    // Every task is claimed: close the batch to late wakers and wait only
    // for the workers that took a seat.
    std::unique_lock<std::mutex> lock(mu_);
    seats_ = 0;
    batch_ = nullptr;
    done_cv_.wait(lock, [&] { return seated_ == 0; });
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

WorkerPool& WorkerPool::shared() {
  static WorkerPool pool(std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

}  // namespace ftss
