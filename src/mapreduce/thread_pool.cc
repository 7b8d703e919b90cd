#include "mapreduce/thread_pool.h"

#include <algorithm>
#include <utility>

namespace smr {

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void ThreadPool::Execute(const Item& item) {
  Dispatch* dispatch = item.dispatch;
  try {
    dispatch->task(item.index);
  } catch (...) {
    dispatch->errors[item.index] = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(dispatch->done_mutex);
    --dispatch->pending;
    // Notify while still holding the lock: the moment pending hits 0 the
    // caller may wake, return from Run, and destroy the stack-allocated
    // Dispatch — notifying after unlocking would touch a dead condvar.
    if (dispatch->pending == 0) dispatch->done_cv.notify_all();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (++parked_ == threads_.size()) parked_cv_.notify_all();
      work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      --parked_;
      if (queue_.empty()) return;  // stopping_, nothing left to drain.
      item = queue_.front();
      queue_.pop_front();
    }
    Execute(item);
  }
}

ThreadPool::RunStats ThreadPool::Run(
    size_t count, const std::function<void(size_t)>& task) {
  RunStats stats;
  if (count <= 1) {
    // Mirrors RunWorkers: a single worker runs inline, pool untouched.
    if (count == 1) task(0);
    return stats;
  }

  Dispatch dispatch(task, count);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++dispatches_;
    // One helper thread per queued task, up to the cap; threads that
    // already exist are parked and just need waking.
    size_t want = count - 1;
    if (max_threads_ > 0) want = std::min<size_t>(want, max_threads_);
    while (threads_.size() < want) {
      threads_.emplace_back([this] { WorkerLoop(); });
      ++threads_spawned_;
      ++stats.spawned;
    }
    for (size_t index = 1; index < count; ++index) {
      queue_.push_back(Item{&dispatch, index});
    }
  }
  stats.reused = (count - 1) - stats.spawned;
  work_cv_.notify_all();

  // The caller is worker 0 (same as RunWorkers), then helps drain the
  // queue while its dispatch is unfinished — this is what makes an
  // oversubscribed dispatch (count - 1 > pool cap) complete.
  try {
    task(0);
  } catch (...) {
    dispatch.errors[0] = std::current_exception();
  }
  for (;;) {
    Item item;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (queue_.empty()) break;
      item = queue_.front();
      queue_.pop_front();
    }
    Execute(item);
  }
  {
    std::unique_lock<std::mutex> lock(dispatch.done_mutex);
    dispatch.done_cv.wait(lock, [&] { return dispatch.pending == 0; });
  }

  for (const std::exception_ptr& error : dispatch.errors) {
    if (error) std::rethrow_exception(error);
  }
  return stats;
}

uint64_t ThreadPool::threads_spawned() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return threads_spawned_;
}

uint64_t ThreadPool::dispatches() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dispatches_;
}

size_t ThreadPool::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return threads_.size();
}

void ThreadPool::WaitUntilParked() {
  std::unique_lock<std::mutex> lock(mutex_);
  parked_cv_.wait(lock, [&] { return parked_ == threads_.size(); });
}

}  // namespace smr
