// The persistent worker pool behind the engine's parallel phases
// (mapreduce/thread_pool.h): RunWorkers-compatible dispatch (task 0 on the
// caller, join-all, lowest-index exception rethrown), thread reuse across
// dispatches (the whole point — a multi-round job must not respawn threads
// per phase), and oversubscribed dispatches draining through a capped pool.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/triangle_census.h"
#include "graph/generators.h"
#include "graph/node_order.h"
#include "mapreduce/job.h"
#include "mapreduce/thread_pool.h"

namespace smr {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnceWithTaskZeroOnCaller) {
  ThreadPool pool;
  const size_t kTasks = 6;
  std::vector<std::atomic<int>> runs(kTasks);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id task0_thread;
  pool.Run(kTasks, [&](size_t t) {
    ++runs[t];
    if (t == 0) task0_thread = std::this_thread::get_id();
  });
  for (size_t t = 0; t < kTasks; ++t) EXPECT_EQ(runs[t].load(), 1) << t;
  EXPECT_EQ(task0_thread, caller);
}

TEST(ThreadPool, SingleTaskRunsInlineWithoutTouchingThePool) {
  ThreadPool pool;
  bool ran = false;
  const ThreadPool::RunStats stats = pool.Run(1, [&](size_t t) {
    EXPECT_EQ(t, 0u);
    ran = true;
  });
  EXPECT_TRUE(ran);
  EXPECT_EQ(stats.spawned, 0u);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.dispatches(), 0u);
}

TEST(ThreadPool, ReusesParkedThreadsAcrossDispatches) {
  ThreadPool pool;
  const ThreadPool::RunStats first = pool.Run(4, [](size_t) {});
  EXPECT_EQ(first.spawned, 3u);
  EXPECT_EQ(first.reused, 0u);
  for (int round = 0; round < 5; ++round) {
    const ThreadPool::RunStats later = pool.Run(4, [](size_t) {});
    EXPECT_EQ(later.spawned, 0u) << round;
    EXPECT_EQ(later.reused, 3u) << round;
  }
  EXPECT_EQ(pool.threads_spawned(), 3u);
  EXPECT_EQ(pool.dispatches(), 6u);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, GrowsOnlyByTheMissingThreads) {
  ThreadPool pool;
  pool.Run(3, [](size_t) {});
  EXPECT_EQ(pool.threads_spawned(), 2u);
  const ThreadPool::RunStats grown = pool.Run(8, [](size_t) {});
  EXPECT_EQ(grown.spawned, 5u);  // 2 parked + 5 new = 7 helpers.
  EXPECT_EQ(grown.reused, 2u);
  EXPECT_EQ(pool.threads_spawned(), 7u);
}

TEST(ThreadPool, OversubscribedDispatchDrainsThroughCappedPool) {
  ThreadPool pool(/*max_threads=*/2);
  const size_t kTasks = 64;
  std::vector<std::atomic<int>> runs(kTasks);
  const ThreadPool::RunStats stats = pool.Run(kTasks, [&](size_t t) {
    ++runs[t];
  });
  for (size_t t = 0; t < kTasks; ++t) EXPECT_EQ(runs[t].load(), 1) << t;
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(stats.spawned, 2u);
  EXPECT_EQ(stats.reused, kTasks - 1 - 2);
}

TEST(ThreadPool, RethrowsLowestIndexException) {
  ThreadPool pool;
  const auto throwing = [](size_t t) {
    if (t == 5) throw std::runtime_error("task 5");
    if (t == 2) throw std::out_of_range("task 2");
  };
  // Repeat: the first throwing task to *finish* varies with scheduling,
  // but the rethrown one must always be the lowest index.
  for (int attempt = 0; attempt < 20; ++attempt) {
    EXPECT_THROW(pool.Run(8, throwing), std::out_of_range);
  }
}

TEST(ThreadPool, ExceptionInCallerTaskZeroSurfaces) {
  ThreadPool pool;
  EXPECT_THROW(pool.Run(4,
                        [](size_t t) {
                          if (t == 0) throw std::logic_error("caller task");
                        }),
               std::logic_error);
  // The pool survives a throwing dispatch and keeps serving.
  std::atomic<int> total{0};
  pool.Run(4, [&](size_t) { ++total; });
  EXPECT_EQ(total.load(), 4);
}

// WaitUntilParked returns on an empty pool and once every thread is parked,
// and blocks while a pool thread is still busy with a task.
TEST(ThreadPool, WaitUntilParkedWaitsForBusyThreads) {
  ThreadPool pool;
  pool.WaitUntilParked();  // No threads yet.
  pool.Run(4, [](size_t) {});
  pool.WaitUntilParked();
  EXPECT_EQ(pool.size(), 3u);

  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::thread dispatcher([&] {
    pool.Run(2, [&](size_t t) {
      if (t == 0) {  // Keeps the caller from draining task 1 itself.
        while (!started) std::this_thread::yield();
        return;
      }
      started = true;
      while (!release) std::this_thread::yield();
    });
  });
  while (!started) std::this_thread::yield();
  std::atomic<bool> parked{false};
  std::thread waiter([&] {
    pool.WaitUntilParked();
    parked = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(parked.load());
  release = true;
  dispatcher.join();
  waiter.join();
  EXPECT_TRUE(parked.load());
}

TEST(ThreadPool, EngineRoundsUnderOneDriverReuseThePool) {
  // A multi-round job through JobDriver must spawn threads only in its
  // first parallel phase: every later phase's ShuffleStats shows reuse
  // and no spawns. This is the tentpole's "fewer thread spawns than
  // rounds x phases" guarantee, checked at the metrics level.
  const ExecutionPolicy policy = ExecutionPolicy::WithThreads(4);
  // Materialize the pool before the driver copies the policy, so the
  // copy shares it and its counters stay observable from here.
  policy.EnsurePool();
  std::vector<int> inputs(4000);
  for (size_t i = 0; i < inputs.size(); ++i) inputs[i] = static_cast<int>(i);
  const RoundSpec<int, int> round{
      "pool-reuse",
      [](const int& v, Emitter<int>* out) {
        out->Emit(static_cast<uint64_t>(v) % 97, v);
      },
      [](uint64_t, std::span<const int> values, ReduceContext* context) {
        context->cost->edges_scanned += values.size();
      },
      97,
      {}};

  JobDriver driver(policy);
  const MapReduceMetrics first = driver.RunRound(round, inputs, nullptr);
  EXPECT_GT(first.shuffle.pool_threads_spawned, 0u);
  for (int r = 0; r < 3; ++r) {
    const MapReduceMetrics later = driver.RunRound(round, inputs, nullptr);
    EXPECT_EQ(later.shuffle.pool_threads_spawned, 0u) << r;
    EXPECT_GT(later.shuffle.pool_tasks_reused, 0u) << r;
  }
  EXPECT_EQ(policy.pool->threads_spawned(), 3u);
}

TEST(ThreadPool, TriangleCensusSpawnsFarFewerThreadsThanPhases) {
  // The tentpole's acceptance shape: a real multi-round job (the 3-round
  // triangle census, 2 parallel phases per round) must show thread spawns
  // bounded by the pool size — not rounds x phases x workers — and
  // nonzero reuse after the first phase.
  const Graph graph = ErdosRenyi(400, 3000, 7);
  const ExecutionPolicy policy = ExecutionPolicy::WithThreads(4);
  policy.EnsurePool();  // Share the pool with the job's policy copy.
  const TriangleCensusResult result =
      TriangleCensus(graph, NodeOrder::ByDegree(graph), policy);
  ASSERT_EQ(result.job.rounds.size(), 3u);
  uint64_t spawned = 0;
  uint64_t reused = 0;
  for (const JobRoundMetrics& round : result.job.rounds) {
    spawned += round.metrics.shuffle.pool_threads_spawned;
    reused += round.metrics.shuffle.pool_tasks_reused;
  }
  EXPECT_LE(spawned, 3u);  // At most num_threads - 1, ever.
  EXPECT_GT(reused, 0u);
  EXPECT_EQ(spawned, policy.pool->threads_spawned());
}

}  // namespace
}  // namespace smr
