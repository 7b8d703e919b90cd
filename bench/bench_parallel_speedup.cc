// Wall-clock comparison of the serial engine against the multi-threaded
// engine on reducer-heavy workloads (bucket-oriented square and triangle
// enumeration, multiway-join triangles). Both run the same partitioned
// pipeline; results are identical by construction — the engine's
// determinism guarantee — so only wall-clock changes. On a single-core host
// every speedup is ~1x; on an N-core host the map workers scatter in
// parallel and the P key-range partitions are grouped and reduced
// independently, so the speedup approaches min(N, #partitions).

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "core/strategy.h"
#include "core/triangle_algorithms.h"
#include "core/triangle_census.h"
#include "graph/generators.h"
#include "graph/node_order.h"
#include "graph/sample_graph.h"
#include "mapreduce/execution_policy.h"

namespace smr {
namespace {

template <typename Fn>
double TimeMs(const Fn& fn, int repetitions) {
  // One warm-up, then best-of-N to damp scheduler noise.
  fn();
  double best = 1e300;
  for (int r = 0; r < repetitions; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(stop - start).count());
  }
  return best;
}

/// Times `run(policy)` under the serial and the parallel policy, and checks
/// the two output counts agree.
template <typename Run>
void Compare(const char* name, const ExecutionPolicy& parallel,
             const Run& run) {
  uint64_t serial_out = 0, parallel_out = 0;
  const double serial_ms =
      TimeMs([&] { serial_out = run(ExecutionPolicy::Serial()); }, 3);
  const double parallel_ms =
      TimeMs([&] { parallel_out = run(parallel); }, 3);
  std::printf("%-26s serial %8.2f ms | parallel %8.2f ms (%4.2fx)%s\n",
              name, serial_ms, parallel_ms, serial_ms / parallel_ms,
              serial_out != parallel_out ? "  MISMATCH — BUG" : "");
}

/// The combine-on/off dimension, on the counting workload where the
/// map-side combiner bites: the triangle census's counting round ships
/// 3 * #triangles raw pairs uncombined vs at most (workers x touched
/// nodes) partial counts combined. Results are identical by construction.
void CompareCombine(const char* name, const Graph& g,
                    const ExecutionPolicy& parallel) {
  const NodeOrder order = NodeOrder::ByDegree(g);
  TriangleCensusResult off, on;
  const double off_ms = TimeMs(
      [&] { off = TriangleCensus(g, order, parallel.WithCombine(false)); }, 3);
  const double on_ms = TimeMs(
      [&] { on = TriangleCensus(g, order, parallel.WithCombine(true)); }, 3);
  const bool mismatch = off.total_triangles != on.total_triangles ||
                        off.per_node != on.per_node;
  // The savings live in the counting round (rounds 1-2 declare no
  // combiner), so report that round's shipped pairs alongside the job
  // totals.
  const uint64_t count_off = off.job.rounds[2].metrics.shuffle.pairs_shipped;
  const uint64_t count_on = on.job.rounds[2].metrics.shuffle.pairs_shipped;
  std::printf(
      "%-26s combine-off %8.2f ms | combine-on %8.2f ms | counting round "
      "ships %llu -> %llu pairs (%.1fx fewer; job total %llu -> %llu)%s\n",
      name, off_ms, on_ms, static_cast<unsigned long long>(count_off),
      static_cast<unsigned long long>(count_on),
      static_cast<double>(count_off) / static_cast<double>(count_on),
      static_cast<unsigned long long>(off.job.TotalPairsShipped()),
      static_cast<unsigned long long>(on.job.TotalPairsShipped()),
      mismatch ? "  MISMATCH — BUG" : "");
}

void Run() {
  ExecutionPolicy parallel = ExecutionPolicy::MaxParallel();
  if (parallel.num_threads < 2) {
    // A 1-thread policy would just repeat the serial column; force 2
    // workers so the parallel pipeline is what runs (on a single core the
    // speedups then mostly reflect overhead).
    parallel = ExecutionPolicy::WithThreads(2);
    std::printf("single hardware context: forcing 2 worker threads\n");
  }
  std::printf("parallel policy: %u thread(s), %u partitions\n\n",
              parallel.num_threads, parallel.EffectivePartitions());

  {
    const Graph g = ErdosRenyi(4000, 40000, 11);
    const SampleGraph square = SampleGraph::Square();
    Compare("bucket-oriented square", parallel,
            [&](const ExecutionPolicy& policy) {
              return StrategyRegistry::Global()
                  .Run(EnumerationQuery::Undirected(square, g)
                           .WithStrategy("bucket:4")
                           .WithPolicy(policy))
                  .instances;
            });
  }

  {
    const Graph g = ErdosRenyi(3000, 36000, 7);
    const SampleGraph triangle = SampleGraph::Triangle();
    Compare("bucket-oriented triangle", parallel,
            [&](const ExecutionPolicy& policy) {
              return StrategyRegistry::Global()
                  .Run(EnumerationQuery::Undirected(triangle, g)
                           .WithStrategy("bucket:10")
                           .WithSeed(3)
                           .WithPolicy(policy))
                  .instances;
            });
  }

  {
    const Graph g = ErdosRenyi(3000, 36000, 7);
    Compare("multiway-join triangles", parallel,
            [&](const ExecutionPolicy& policy) {
              return MultiwayJoinTriangles(g, 6, 3, nullptr, policy).outputs;
            });
  }

  {
    const Graph g = ErdosRenyi(2000, 40000, 13);
    CompareCombine("triangle census", g, parallel);
  }
}

}  // namespace
}  // namespace smr

int main() {
  smr::Run();
  return 0;
}
