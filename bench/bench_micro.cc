// Google-benchmark microbenchmarks of the library's hot kernels: edge-index
// probes, serial triangle enumeration, the CQ evaluator, the bucket-oriented
// map-reduce round, and the share optimizer.

#include <algorithm>
#include <cstdio>
#include <random>
#include <thread>

#include <benchmark/benchmark.h>

#include "core/strategy.h"
#include "graph/intersect.h"
#include "mapreduce/thread_pool.h"
#include "cq/cq_evaluator.h"
#include "cq/cq_generation.h"
#include "graph/generators.h"
#include "graph/sample_graph.h"
#include "mapreduce/job.h"
#include "serial/triangles.h"
#include "shares/share_optimizer.h"
#include "util/hashing.h"

namespace smr {
namespace {

void BM_EdgeIndexProbe(benchmark::State& state) {
  const Graph g = ErdosRenyi(10000, 50000, 1);
  NodeId u = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.HasEdge(u, u + 17));
    u = (u + 31) % (g.num_nodes() - 20);
  }
}
BENCHMARK(BM_EdgeIndexProbe);

/// Sorted lists with ~50% mutual overlap; `ratio` shrinks the first list to
/// size/ratio, moving the workload from the block-compare regime (1:1) into
/// the skewed regime the galloping / narrow-side paths serve.
std::pair<std::vector<NodeId>, std::vector<NodeId>> IntersectInputs(
    size_t size, size_t ratio) {
  std::mt19937 rng(99);
  std::uniform_int_distribution<NodeId> dist(0,
                                             static_cast<NodeId>(4 * size));
  auto make = [&](size_t n) {
    std::vector<NodeId> v(n);
    for (NodeId& x : v) x = dist(rng);
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
  };
  return {make(std::max<size_t>(1, size / ratio)), make(size)};
}

void BM_IntersectCount(benchmark::State& state) {
  const auto [a, b] = IntersectInputs(static_cast<size_t>(state.range(0)),
                                      static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectCount(a, b));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.size() + b.size()));
}
BENCHMARK(BM_IntersectCount)
    ->ArgNames({"size", "ratio"})
    ->Args({4096, 1})
    ->Args({4096, 32})
    ->Args({4096, 1024});

void BM_IntersectCountScalar(benchmark::State& state) {
  const auto [a, b] = IntersectInputs(static_cast<size_t>(state.range(0)),
                                      static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(intersect_detail::IntersectCountScalar(a, b));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.size() + b.size()));
}
BENCHMARK(BM_IntersectCountScalar)
    ->ArgNames({"size", "ratio"})
    ->Args({4096, 1})
    ->Args({4096, 32})
    ->Args({4096, 1024});

void BM_SerialTriangles(benchmark::State& state) {
  const Graph g =
      ErdosRenyi(static_cast<NodeId>(state.range(0)), 4 * state.range(0), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountTriangles(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SerialTriangles)->Range(1 << 10, 1 << 14)->Complexity();

void BM_CqEvaluatorSquare(benchmark::State& state) {
  const Graph g = ErdosRenyi(2000, 8000, 3);
  const auto cqs = CqsForSample(SampleGraph::Square());
  const CqEvaluator evaluator(g, NodeOrder::Identity(g.num_nodes()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.EvaluateAll(cqs, nullptr, nullptr));
  }
}
BENCHMARK(BM_CqEvaluatorSquare);

void BM_BucketOrientedTriangles(benchmark::State& state) {
  const Graph g = ErdosRenyi(2000, 10000, 4);
  const SampleGraph triangle = SampleGraph::Triangle();
  const EnumerationQuery query =
      EnumerationQuery::Undirected(triangle, g)
          .WithSpec({"bucket", {TunableValue::Int(state.range(0))}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(StrategyRegistry::Global().Run(query).instances);
  }
}
BENCHMARK(BM_BucketOrientedTriangles)->Arg(2)->Arg(4)->Arg(8);

void BM_ShareOptimizer(benchmark::State& state) {
  const auto cqs = CqsForSample(SampleGraph::Cycle(6));
  const auto expression = CostExpression::ForCqSet(cqs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(OptimizeShares(expression, 500000).cost_per_edge);
  }
}
BENCHMARK(BM_ShareOptimizer);

void BM_GraphConstruction(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ErdosRenyi(5000, 25000, state.iterations()).num_edges());
  }
}
BENCHMARK(BM_GraphConstruction);

/// Isolates the engine's shuffle: a round with trivial map/reduce work so
/// that scattering and grouping 4M key-value pairs dominates. Arg 0 is the
/// thread count (0 = one per hardware context, at least 2, so the parallel
/// pipeline is what gets measured even on one core); arg 1 the partition
/// count (1 = one global partition, 0 = auto); arg 2 the log2 of the
/// declared key space. At 2^16 the keys are dense, so every partition
/// takes the per-key counting scatter. At 2^40 every partition is sparse
/// (4M keys over 2^40, like the two-round join's u * n + w) and takes the
/// binned scatter plus in-bin sorts. P = 1 at 2+ threads shows the cost of
/// grouping and reducing one partition on one worker; the threads = 1 rows
/// time the serial round.
void BM_EngineShuffle(benchmark::State& state) {
  const size_t n = 1 << 20;
  std::vector<int> inputs(n);
  for (size_t i = 0; i < n; ++i) inputs[i] = static_cast<int>(i);
  const uint64_t key_space = uint64_t{1} << state.range(2);
  auto map_fn = [key_space](const int& value, Emitter<int>* out) {
    for (int e = 0; e < 4; ++e) {
      out->Emit(SplitMix64(static_cast<uint64_t>(value) * 4 + e) % key_space,
                value);
    }
  };
  auto reduce_fn = [](uint64_t, std::span<const int> values,
                      ReduceContext* context) {
    context->cost->edges_scanned += values.size();
  };
  const unsigned threads =
      state.range(0) > 0
          ? static_cast<unsigned>(state.range(0))
          : std::max(2u, ExecutionPolicy::MaxParallel().num_threads);
  const ExecutionPolicy policy =
      ExecutionPolicy::WithThreads(threads).WithPartitions(
          static_cast<unsigned>(state.range(1)));
  const RoundSpec<int, int> round{"shuffle-bench", map_fn, reduce_fn,
                                  key_space, {}};
  for (auto _ : state) {
    JobDriver driver(policy);
    benchmark::DoNotOptimize(
        driver.RunRound(round, inputs, nullptr).distinct_keys);
  }
}
BENCHMARK(BM_EngineShuffle)
    ->ArgNames({"threads", "partitions", "key_bits"})
    ->Args({1, 1, 16})
    ->Args({1, 0, 16})
    ->Args({0, 1, 16})
    ->Args({0, 0, 16})
    ->Args({1, 0, 40})
    ->Args({0, 0, 40});

/// Latency of waking the persistent pool for one parallel phase (the
/// per-phase overhead a multi-round job pays after its first phase
/// spawned the threads), vs spawning and joining fresh std::threads the
/// way the engine did before the pool existed.
void BM_ThreadPoolDispatch(benchmark::State& state) {
  ThreadPool pool;
  pool.Run(4, [](size_t) {});  // Warm up: spawn outside the timed loop.
  for (auto _ : state) {
    pool.Run(4, [](size_t) {});
  }
}
BENCHMARK(BM_ThreadPoolDispatch);

void BM_ThreadSpawnDispatch(benchmark::State& state) {
  for (auto _ : state) {
    std::thread workers[3];
    for (auto& worker : workers) worker = std::thread([] {});
    for (auto& worker : workers) worker.join();
  }
}
BENCHMARK(BM_ThreadSpawnDispatch);

}  // namespace
}  // namespace smr

int main(int argc, char** argv) {
  // Which ISA the intersection kernels dispatched to — a measurement is
  // meaningless without it (set SMR_FORCE_SCALAR=1 to pin the scalar path).
  std::printf("intersect kernels: %s\n",
              smr::SimdLevelName(smr::ActiveSimdLevel()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
