#ifndef SMR_MAPREDUCE_THREAD_POOL_H_
#define SMR_MAPREDUCE_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace smr {

/// Persistent worker pool behind the engine's parallel phases.
///
/// The engine used to spawn and join fresh std::threads for every phase of
/// every round (engine_internal::RunWorkers), so a 3-round job paid thread
/// setup 2x per round. A ThreadPool keeps its workers alive and parked on a
/// condition variable between dispatches: the first parallel phase of a job
/// spawns them, every later phase just wakes them. ExecutionPolicy owns one
/// (shared by all copies of the policy, so every round a JobDriver runs
/// reuses the same pool).
///
/// Run() reproduces RunWorkers' contract exactly:
///  * task(0) runs on the calling thread, tasks 1..count-1 on the pool;
///  * Run returns only after every task finished;
///  * a task that throws has its exception captured, and after all tasks
///    complete the lowest-index exception is rethrown to the caller —
///    identical to the serial engine's behavior, never std::terminate.
///
/// Oversubscription is fine: tasks are queued and drained, so Run(count)
/// completes even when count - 1 exceeds the pool's thread cap (the caller
/// helps drain the queue while it waits). Run is thread-safe; concurrent
/// dispatches share the queue and are tracked independently.
class ThreadPool {
 public:
  /// Accounting for one Run() call, the raw material of the per-round
  /// pool-reuse stats in ShuffleStats.
  struct RunStats {
    /// Threads the pool had to create for this dispatch.
    uint64_t spawned = 0;
    /// Pool tasks served without creating a thread (parked threads woken,
    /// or queue slots drained by existing workers / the caller).
    uint64_t reused = 0;
  };

  /// `max_threads` caps the pool's size; 0 = grow to demand (one thread
  /// per concurrent pool task, the RunWorkers-equivalent sizing).
  explicit ThreadPool(unsigned max_threads = 0) : max_threads_(max_threads) {}

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Runs task(t) for t in [0, count), task 0 on the calling thread.
  /// Blocks until all tasks finished; rethrows the lowest-index task
  /// exception. Returns how many threads this dispatch spawned vs reused.
  RunStats Run(size_t count, const std::function<void(size_t)>& task);

  /// Threads created over the pool's lifetime.
  uint64_t threads_spawned() const;

  /// Run() calls that dispatched to the pool (count > 1).
  uint64_t dispatches() const;

  /// Worker threads currently alive (parked or busy).
  size_t size() const;

  /// Blocks until every worker thread is parked waiting for work. A Run
  /// can return while a thread it spawned is still starting up, or has
  /// just finished a task; a parked thread holds no lock of the allocator
  /// or the runtime, so the caller may fork() once this returns (as the
  /// process backend does). The caller must not dispatch concurrently.
  void WaitUntilParked();

 private:
  /// One Run() call in flight: the task, its error slots, and a countdown
  /// of queued (non-caller) tasks. Lives on Run's stack — Run blocks until
  /// pending reaches 0, so queue items can hold a bare pointer.
  struct Dispatch {
    Dispatch(const std::function<void(size_t)>& fn, size_t count)
        : task(fn), errors(count), pending(count - 1) {}

    const std::function<void(size_t)>& task;
    std::vector<std::exception_ptr> errors;
    std::mutex done_mutex;
    std::condition_variable done_cv;
    size_t pending;  // Guarded by done_mutex.
  };

  struct Item {
    Dispatch* dispatch = nullptr;
    size_t index = 0;
  };

  /// Runs one queued task, capturing its exception into its dispatch's
  /// slot, and signals the dispatch when it was the last task.
  static void Execute(const Item& item);

  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable parked_cv_;
  std::deque<Item> queue_;          // Guarded by mutex_.
  std::vector<std::thread> threads_;  // Guarded by mutex_.
  bool stopping_ = false;           // Guarded by mutex_.
  size_t parked_ = 0;               // Guarded by mutex_.
  uint64_t threads_spawned_ = 0;    // Guarded by mutex_.
  uint64_t dispatches_ = 0;         // Guarded by mutex_.
  const unsigned max_threads_;
};

}  // namespace smr

#endif  // SMR_MAPREDUCE_THREAD_POOL_H_
