// Out-of-core shuffle demonstration: enumerate triangles on a graph whose
// shuffle volume is several times the declared budget
// (ExecutionPolicy::shuffle_budget_bytes), and report peak RSS against
// budget + graph size. The input round-trips through the binary edge-list
// format (graph/io) on the way in, so the loader is exercised at bench
// scale too.
//
// Run order matters: getrusage's ru_maxrss is a process-wide high-water
// mark, so the budgeted run goes FIRST; the optional --verify pass (the
// unbounded engine, for the byte-equality differential) runs after and
// may only raise the mark. CI's out-of-core smoke job therefore runs
// WITHOUT --verify under a hard address-space ulimit smaller than the
// unbounded shuffle volume — completing at all under that limit is the
// proof that the budget is honored.
//
//   bench_out_of_core [--nodes N] [--edges M] [--bucket B] [--budget BYTES]
//                     [--threads T] [--seed S] [--verify]

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/strategy.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/sample_graph.h"
#include "mapreduce/execution_policy.h"
#include "util/parse.h"

namespace smr {
namespace {

uint64_t PeakRssBytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is KiB on Linux.
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

double Mb(uint64_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

[[noreturn]] void Usage(const std::string& message) {
  std::fprintf(stderr, "bench_out_of_core: %s\n", message.c_str());
  std::exit(2);
}

uint64_t RequireBytes(const std::string& text, const char* flag) {
  const auto value = ParseByteSize(text);
  if (!value) Usage(std::string(flag) + " needs a byte size, got " + text);
  return *value;
}

uint64_t RequireCount(const std::string& text, const char* flag) {
  const auto value = ParseUint64(text);
  if (!value) Usage(std::string(flag) + " needs an integer, got " + text);
  return *value;
}

int Run(int argc, char** argv) {
  uint64_t nodes = 20000;
  uint64_t edges = 300000;
  int bucket = 8;
  uint64_t budget = 4 << 20;
  unsigned threads = 1;
  uint64_t seed = 1;
  bool verify = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--nodes") {
      nodes = RequireCount(next(), "--nodes");
    } else if (arg == "--edges") {
      edges = RequireCount(next(), "--edges");
    } else if (arg == "--bucket") {
      bucket = static_cast<int>(RequireCount(next(), "--bucket"));
    } else if (arg == "--budget") {
      budget = RequireBytes(next(), "--budget");
    } else if (arg == "--threads") {
      threads = static_cast<unsigned>(RequireCount(next(), "--threads"));
    } else if (arg == "--seed") {
      seed = RequireCount(next(), "--seed");
    } else if (arg == "--verify") {
      verify = true;
    } else {
      Usage("unknown flag " + arg);
    }
  }
  if (budget == 0) Usage("--budget must be > 0 (the point of this bench)");

  // Generate, round-trip through the binary format, and enumerate from the
  // loaded copy.
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string path =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") + "/smr-ooc-" +
      std::to_string(static_cast<unsigned long long>(seed)) + ".smrb";
  {
    const Graph generated =
        ErdosRenyi(static_cast<NodeId>(nodes), static_cast<size_t>(edges),
                   seed);
    WriteBinaryEdgeListFile(generated, path);
  }
  const Graph graph = LoadGraphFile(path);
  const uint64_t graph_bytes = graph.num_edges() * sizeof(Edge);
  std::printf("graph:   n=%u m=%zu (%.1f MB as edges, binary file %s)\n",
              graph.num_nodes(), graph.num_edges(), Mb(graph_bytes),
              path.c_str());
  const uint64_t baseline_rss = PeakRssBytes();
  std::printf("rss:     %.1f MB after load\n", Mb(baseline_rss));

  const SampleGraph triangle = SampleGraph::Triangle();
  const auto run_bucket = [&](const ExecutionPolicy& policy,
                              InstanceSink* sink) {
    return StrategyRegistry::Global()
        .Run(EnumerationQuery::Undirected(triangle, graph)
                 .WithSpec({"bucket", {TunableValue::Int(bucket)}})
                 .WithSeed(seed)
                 .WithPolicy(policy)
                 .WithSink(sink))
        .metrics;
  };

  // Budgeted run first — see the header comment on ru_maxrss.
  CountingSink counting;
  const MapReduceMetrics metrics = run_bucket(
      ExecutionPolicy::WithThreads(threads).WithBudget(budget), &counting);
  const uint64_t peak_rss = PeakRssBytes();
  const double volume_ratio =
      static_cast<double>(metrics.shuffle.shuffle_bytes) /
      static_cast<double>(budget);
  std::printf(
      "shuffle: %.1f MB over a %.1f MB budget (%.1fx) — spilled %llu pages"
      " / %.1f MB across %llu file(s)\n",
      Mb(metrics.shuffle.shuffle_bytes), Mb(budget), volume_ratio,
      static_cast<unsigned long long>(metrics.shuffle.pages_spilled),
      Mb(metrics.shuffle.bytes_spilled),
      static_cast<unsigned long long>(metrics.shuffle.spill_files));
  std::printf("result:  %llu triangles, %llu reducers used\n",
              static_cast<unsigned long long>(counting.count()),
              static_cast<unsigned long long>(metrics.distinct_keys));
  // The acceptance framing: the run held a multi-x-of-budget shuffle while
  // its peak stayed near baseline + budget (reducer-side state and
  // allocator slack account for the rest).
  const double rss_ratio = static_cast<double>(peak_rss) /
                           static_cast<double>(baseline_rss + budget);
  std::printf("rss:     %.1f MB peak vs %.1f MB (graph baseline + budget)"
              " = %.2fx\n",
              Mb(peak_rss), Mb(baseline_rss + budget), rss_ratio);
  if (volume_ratio < 4.0) {
    std::printf("note:    shuffle volume under 4x budget — grow --edges or"
                " shrink --budget for a meaningful demonstration\n");
  }

  int failures = 0;
  if (verify) {
    CountingSink unbounded_count;
    const MapReduceMetrics unbounded =
        run_bucket(ExecutionPolicy::WithThreads(threads), &unbounded_count);
    const bool equal = metrics == unbounded &&
                       counting.count() == unbounded_count.count();
    std::printf("verify:  unbounded run %s (%llu triangles)\n",
                equal ? "IDENTICAL" : "MISMATCH — BUG",
                static_cast<unsigned long long>(unbounded_count.count()));
    if (!equal) ++failures;
  }
  std::remove(path.c_str());
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace smr

int main(int argc, char** argv) { return smr::Run(argc, argv); }
