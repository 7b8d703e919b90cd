// Fault-tolerance tests for the process backend (mapreduce/process_backend.h)
// driven by the deterministic injection harness (mapreduce/fault_injection.h):
// a worker killed mid-stream, a stalled link, a corrupted frame, a failed
// fork, or a failed spill append must be retried under the policy's
// RetryPolicy and produce results byte-identical to the fault-free run —
// same instances, same emission order, same semantic metrics. An exhausted
// retry budget must surface as a WorkerError naming the worker, the fault
// kind, and the attempt count (or degrade to the thread backend under
// OnExhausted::kFallbackThread), never as a hang.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <climits>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/strategy.h"
#include "graph/generators.h"
#include "graph/sample_graph.h"
#include "mapreduce/engine.h"
#include "mapreduce/execution_policy.h"
#include "mapreduce/fault_injection.h"
#include "mapreduce/instance_sink.h"
#include "mapreduce/job.h"
#include "mapreduce/metrics.h"
#include "mapreduce/policy_spec.h"
#include "mapreduce/process_link.h"
#include "mapreduce/worker_error.h"

namespace smr {
namespace {

Graph TestGraph() { return ErdosRenyi(60, 240, 7); }

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// Process-backend policy armed with `injector` and a retry budget of
/// `max_attempts` total attempts per worker slot (immediate retries — the
/// scenarios are deterministic, waiting teaches nothing).
ExecutionPolicy FaultyPolicy(unsigned workers, FaultInjector* injector,
                             unsigned max_attempts = 2) {
  return ExecutionPolicy::Serial()
      .WithBackend(BackendMode::kProcess, workers)
      .WithRetry(RetryPolicy{max_attempts, 0, 2.0})
      .WithFaultInjector(injector);
}

// ---------------------------------------------------------------------------
// Full-strategy differentials: injected single faults vs the serial reference
// ---------------------------------------------------------------------------

struct StrategyRun {
  uint64_t instances = 0;
  std::vector<std::vector<NodeId>> assignments;
  MapReduceMetrics metrics;
  JobMetrics job;
};

StrategyRun RunStrategy(const SampleGraph& pattern, const Graph& graph,
                        const std::string& strategy,
                        const ExecutionPolicy& policy) {
  CollectingSink sink;
  EnumerationQuery query = EnumerationQuery::Undirected(pattern, graph);
  query.WithStrategy(strategy).WithPolicy(policy).WithSink(&sink);
  const EnumerationResult result = StrategyRegistry::Global().Run(query);
  return StrategyRun{result.instances, sink.assignments(), result.metrics,
                     result.job};
}

uint64_t TotalRetries(const JobMetrics& job) {
  uint64_t total = 0;
  for (const JobRoundMetrics& round : job.rounds) {
    total += round.metrics.shuffle.worker_retries;
  }
  return total;
}

uint64_t TotalFallbacks(const JobMetrics& job) {
  uint64_t total = 0;
  for (const JobRoundMetrics& round : job.rounds) {
    total += round.metrics.shuffle.thread_fallbacks;
  }
  return total;
}

// The acceptance grid from the issue: every single-fault scenario — map
// kill, reduce kill, corrupt frames on either link, a failed fork — must
// recover within one retry and match the serial reference byte for byte:
// instance count, assignments in order, semantic metrics, and the whole
// JobMetrics chain. The injector's fire counter must agree with the
// recorded retry count, pinning that recovery actually exercised the plan.
TEST(FaultTolerance, SingleFaultScenariosRecoverByteIdentically) {
  const Graph graph = TestGraph();
  const SampleGraph triangle = SampleGraph::Triangle();
  const SampleGraph square = SampleGraph::Square();
  const struct {
    const SampleGraph* pattern;
    const char* strategy;
  } kCases[] = {
      {&triangle, "bucket:6"},
      {&square, "bucket:5"},
  };
  const char* kPlans[] = {
      "map:kill:0:after=2",
      "reduce:kill:0:after=1",
      "map:corrupt:1:after=3",
      "reduce:corrupt:0:after=2",
      "map:spawnfail:1",
  };

  for (const auto& test_case : kCases) {
    const StrategyRun expected =
        RunStrategy(*test_case.pattern, graph, test_case.strategy,
                    ExecutionPolicy::Serial());
    ASSERT_GT(expected.instances, 0u) << test_case.strategy;

    for (const char* plan : kPlans) {
      for (const unsigned workers : {2u, 4u}) {
        FaultInjector injector(ParseFaultPlan(plan));
        const StrategyRun got =
            RunStrategy(*test_case.pattern, graph, test_case.strategy,
                        FaultyPolicy(workers, &injector));
        const std::string label = std::string(test_case.strategy) +
                                  " plan=" + plan +
                                  " workers=" + std::to_string(workers);
        EXPECT_EQ(got.instances, expected.instances) << label;
        EXPECT_EQ(got.assignments, expected.assignments) << label;
        EXPECT_TRUE(got.metrics == expected.metrics) << label;
        EXPECT_TRUE(got.job == expected.job) << label;
        EXPECT_EQ(injector.fires(), 1u) << label;
        EXPECT_EQ(TotalRetries(got.job), 1u) << label;
      }
    }
  }
}

// Multi-round strategies retry per round: a map kill in one round and a
// reduce kill in another both recover, and the intermediate-record channel
// replays identically across the re-execution.
TEST(FaultTolerance, MultiRoundStrategyRecoversInEveryRound) {
  const Graph graph = TestGraph();
  const SampleGraph triangle = SampleGraph::Triangle();
  const StrategyRun expected =
      RunStrategy(triangle, graph, "tworound", ExecutionPolicy::Serial());
  ASSERT_GT(expected.instances, 0u);

  FaultInjector injector(
      ParseFaultPlan("map:kill:0:after=1;reduce:kill:0:after=0"));
  const StrategyRun got =
      RunStrategy(triangle, graph, "tworound", FaultyPolicy(4, &injector));
  EXPECT_EQ(got.instances, expected.instances);
  EXPECT_EQ(got.assignments, expected.assignments);
  EXPECT_TRUE(got.metrics == expected.metrics);
  EXPECT_TRUE(got.job == expected.job);
  EXPECT_EQ(injector.fires(), 2u);
  EXPECT_EQ(TotalRetries(got.job), 2u);
}

// ---------------------------------------------------------------------------
// Round-level differentials over a synthetic counting round
// ---------------------------------------------------------------------------

using CountSpec = RoundSpec<uint32_t, uint64_t>;

CountSpec CountRound(uint64_t keys, bool with_combiner) {
  CountSpec spec;
  spec.name = "count";
  spec.key_space = keys;
  spec.mapper = [keys](const uint32_t& input, Emitter<uint64_t>* emitter) {
    emitter->Emit(input % keys, 1);
  };
  spec.reducer = [](uint64_t key, std::span<const uint64_t> values,
                    ReduceContext* context) {
    uint64_t total = 0;
    for (const uint64_t value : values) total += value;
    const NodeId out[2] = {static_cast<NodeId>(key),
                           static_cast<NodeId>(total)};
    context->EmitInstance(out);
  };
  if (with_combiner) {
    spec.combiner = [](uint64_t& acc, const uint64_t& incoming) {
      acc += incoming;
    };
  }
  return spec;
}

std::vector<uint32_t> Iota(size_t n) {
  std::vector<uint32_t> inputs(n);
  std::iota(inputs.begin(), inputs.end(), 0u);
  return inputs;
}

// The last two plans kill both slots of one crew in the same pass: each
// is discarded and re-forked in the next pass.
TEST(FaultTolerance, RoundLevelKillsRecoverAcrossPartitionCountsAndBudgets) {
  const CountSpec spec = CountRound(50, /*with_combiner=*/false);
  const std::vector<uint32_t> inputs = Iota(1000);

  CollectingSink thread_sink;
  const MapReduceMetrics thread_metrics =
      RunRound(spec, std::span<const uint32_t>(inputs), &thread_sink);

  for (const char* plan : {"map:kill:0:after=2;reduce:kill:1:after=1",
                           "map:kill:0:after=1;map:kill:1:after=2",
                           "reduce:kill:0:after=0;reduce:kill:1:after=1"}) {
    for (const unsigned partitions : {1u, 0u /* auto */}) {
      for (const uint64_t budget : {uint64_t{0}, uint64_t{64} * 1024}) {
        FaultInjector injector(ParseFaultPlan(plan));
        CollectingSink sink;
        const MapReduceMetrics metrics =
            RunRound(spec, std::span<const uint32_t>(inputs), &sink, nullptr,
                     FaultyPolicy(3, &injector)
                         .WithPartitions(partitions)
                         .WithBudget(budget));
        const std::string label =
            std::string(plan) + " partitions=" + std::to_string(partitions) +
            " budget=" + std::to_string(budget);
        EXPECT_TRUE(metrics == thread_metrics) << label;
        EXPECT_EQ(sink.assignments(), thread_sink.assignments()) << label;
        EXPECT_EQ(metrics.shuffle.worker_retries, 2u) << label;
        EXPECT_GT(metrics.shuffle.frames_discarded, 0u) << label;
        EXPECT_EQ(metrics.shuffle.deadline_kills, 0u) << label;
        EXPECT_EQ(injector.fires(), 2u) << label;
      }
    }
  }
}

// Map workers ship while they map, so a fault armed past the first
// kBatchBytes batch lands after whole batches already reached the
// coordinator's channel. Frame 30 000 is past it: a pair frame of this
// round is at least 11 bytes. Each failed attempt must discard exactly
// the frames before its cut, and recovery must stay byte-identical, also
// when the channel spilled them.
TEST(FaultTolerance, LateCutsPastTheFirstBatchDiscardTheFramesBeforeThem) {
  static_assert(30000 * 11 > process_internal::kBatchBytes);
  const CountSpec spec = CountRound(256, /*with_combiner=*/false);
  const std::vector<uint32_t> inputs = Iota(200000);

  CollectingSink thread_sink;
  const MapReduceMetrics thread_metrics =
      RunRound(spec, std::span<const uint32_t>(inputs), &thread_sink);

  const struct {
    const char* plan;
    uint64_t faults;
  } kCases[] = {
      {"map:kill:0:after=30000", 1},
      {"map:corrupt:1:after=30000", 1},
      {"map:kill:0:after=30000;map:corrupt:1:after=30000", 2},
  };
  for (const auto& test_case : kCases) {
    for (const uint64_t budget : {uint64_t{0}, uint64_t{64} * 1024}) {
      FaultInjector injector(ParseFaultPlan(test_case.plan));
      CollectingSink sink;
      const MapReduceMetrics metrics =
          RunRound(spec, std::span<const uint32_t>(inputs), &sink, nullptr,
                   FaultyPolicy(2, &injector).WithBudget(budget));
      const std::string label =
          std::string(test_case.plan) + " budget=" + std::to_string(budget);
      EXPECT_TRUE(metrics == thread_metrics) << label;
      EXPECT_EQ(sink.assignments(), thread_sink.assignments()) << label;
      EXPECT_EQ(metrics.shuffle.worker_retries, test_case.faults) << label;
      EXPECT_EQ(metrics.shuffle.frames_discarded, 30000 * test_case.faults)
          << label;
      EXPECT_EQ(injector.fires(), test_case.faults) << label;
    }
  }
}

// A stalled map link sends a frame and then goes silent; only the progress
// deadline can unwedge the round. The kill is recorded, the retry succeeds,
// and results are identical to the fault-free run.
TEST(FaultTolerance, StalledMapWorkerIsKilledByDeadlineAndRetried) {
  const CountSpec spec = CountRound(50, /*with_combiner=*/false);
  const std::vector<uint32_t> inputs = Iota(1000);

  CollectingSink thread_sink;
  const MapReduceMetrics thread_metrics =
      RunRound(spec, std::span<const uint32_t>(inputs), &thread_sink);

  FaultInjector injector(ParseFaultPlan("map:stall:0:after=1"));
  CollectingSink sink;
  const MapReduceMetrics metrics =
      RunRound(spec, std::span<const uint32_t>(inputs), &sink, nullptr,
               FaultyPolicy(2, &injector).WithDeadline(400));
  EXPECT_TRUE(metrics == thread_metrics);
  EXPECT_EQ(sink.assignments(), thread_sink.assignments());
  EXPECT_EQ(metrics.shuffle.deadline_kills, 1u);
  EXPECT_EQ(metrics.shuffle.worker_retries, 1u);
}

TEST(FaultTolerance, StalledReduceWorkerIsKilledByDeadlineAndRetried) {
  const CountSpec spec = CountRound(50, /*with_combiner=*/false);
  const std::vector<uint32_t> inputs = Iota(1000);

  CollectingSink thread_sink;
  const MapReduceMetrics thread_metrics =
      RunRound(spec, std::span<const uint32_t>(inputs), &thread_sink);

  FaultInjector injector(ParseFaultPlan("reduce:stall:0:after=0"));
  CollectingSink sink;
  const MapReduceMetrics metrics =
      RunRound(spec, std::span<const uint32_t>(inputs), &sink, nullptr,
               FaultyPolicy(2, &injector).WithDeadline(400));
  EXPECT_TRUE(metrics == thread_metrics);
  EXPECT_EQ(sink.assignments(), thread_sink.assignments());
  EXPECT_EQ(metrics.shuffle.deadline_kills, 1u);
  EXPECT_EQ(metrics.shuffle.worker_retries, 1u);
}

// A spill append that fails while one map link is drained (the budget is
// tight enough that every link spills many times) discards the attempt,
// retries with a healthy store, and matches the unbudgeted thread run.
// Links drain concurrently, each on its own coordinator thread, so the
// failure is armed for the failing link's drain only: the other link
// keeps appending through the same faulty backend and is not retried.
TEST(FaultTolerance, SpillAppendFailureIsRetriedWithoutChangingResults) {
  const CountSpec spec = CountRound(256, /*with_combiner=*/false);
  const std::vector<uint32_t> inputs = Iota(200000);

  CollectingSink thread_sink;
  const MapReduceMetrics thread_metrics =
      RunRound(spec, std::span<const uint32_t>(inputs), &thread_sink);

  const struct {
    const char* plan;
    uint64_t retries;
  } kCases[] = {
      {"map:spillfail:0", 1},
      {"map:spillfail:1", 1},
      {"map:spillfail:0;map:spillfail:1", 2},
  };
  for (const auto& test_case : kCases) {
    FaultInjector injector(ParseFaultPlan(test_case.plan));
    CollectingSink sink;
    const MapReduceMetrics metrics =
        RunRound(spec, std::span<const uint32_t>(inputs), &sink, nullptr,
                 FaultyPolicy(2, &injector).WithBudget(16 * 1024));
    const std::string label = test_case.plan;
    EXPECT_TRUE(metrics == thread_metrics) << label;
    EXPECT_EQ(sink.assignments(), thread_sink.assignments()) << label;
    EXPECT_EQ(metrics.shuffle.worker_retries, test_case.retries) << label;
    EXPECT_EQ(injector.fires(FaultKind::kFailSpillAppend), test_case.retries)
        << label;
    EXPECT_GT(metrics.shuffle.pages_spilled, 0u) << label;
  }
}

// ---------------------------------------------------------------------------
// Exhaustion: WorkerError taxonomy and graceful degradation
// ---------------------------------------------------------------------------

TEST(FaultTolerance, ExhaustedRetriesSurfaceAsWorkerErrorNamingTheWorker) {
  const CountSpec spec = CountRound(8, /*with_combiner=*/false);
  const std::vector<uint32_t> inputs = Iota(100);

  FaultInjector injector(ParseFaultPlan("map:kill:0:after=1:times=3"));
  CollectingSink sink;
  try {
    RunRound(spec, std::span<const uint32_t>(inputs), &sink, nullptr,
             FaultyPolicy(2, &injector, /*max_attempts=*/2));
    FAIL() << "an exhausted retry budget must raise";
  } catch (const WorkerError& error) {
    EXPECT_EQ(error.kind(), WorkerErrorKind::kCrash);
    EXPECT_EQ(error.role(), "map");
    EXPECT_EQ(error.worker(), 0u);
    EXPECT_EQ(error.attempts(), 2u);
    EXPECT_TRUE(Contains(error.what(), "map worker 0")) << error.what();
    EXPECT_TRUE(Contains(error.what(), "killed by signal 9"))
        << error.what();
    EXPECT_TRUE(Contains(error.what(), "worker-crash")) << error.what();
    EXPECT_TRUE(Contains(error.what(), "gave up after 2 attempts"))
        << error.what();
  }
  // 2 attempts armed, one `times` left unspent.
  EXPECT_EQ(injector.fires(), 2u);
}

TEST(FaultTolerance, ExhaustedSpawnFailuresCarryTheirKind) {
  const CountSpec spec = CountRound(8, /*with_combiner=*/false);
  const std::vector<uint32_t> inputs = Iota(100);

  FaultInjector injector(ParseFaultPlan("map:spawnfail:1:times=2"));
  CollectingSink sink;
  try {
    RunRound(spec, std::span<const uint32_t>(inputs), &sink, nullptr,
             FaultyPolicy(2, &injector, /*max_attempts=*/2));
    FAIL() << "an exhausted retry budget must raise";
  } catch (const WorkerError& error) {
    EXPECT_EQ(error.kind(), WorkerErrorKind::kSpawnFailure);
    EXPECT_EQ(error.role(), "map");
    EXPECT_EQ(error.worker(), 1u);
    EXPECT_TRUE(Contains(error.what(), "injected spawn failure"))
        << error.what();
    EXPECT_TRUE(Contains(error.what(), "spawn-failure")) << error.what();
  }
}

// OnExhausted::kFallbackThread: the round whose worker keeps dying is
// re-run on the in-memory backend — same results, and the degradation is
// visible in thread_fallbacks.
TEST(FaultTolerance, FallbackReproducesResultsOnTheThreadBackend) {
  const CountSpec spec = CountRound(50, /*with_combiner=*/false);
  const std::vector<uint32_t> inputs = Iota(1000);

  CollectingSink thread_sink;
  const MapReduceMetrics thread_metrics =
      RunRound(spec, std::span<const uint32_t>(inputs), &thread_sink);

  FaultInjector injector(ParseFaultPlan("map:kill:0:after=1:times=99"));
  CollectingSink sink;
  const MapReduceMetrics metrics = RunRound(
      spec, std::span<const uint32_t>(inputs), &sink, nullptr,
      FaultyPolicy(3, &injector, /*max_attempts=*/2)
          .WithOnExhausted(OnExhausted::kFallbackThread));
  EXPECT_TRUE(metrics == thread_metrics);
  EXPECT_EQ(sink.assignments(), thread_sink.assignments());
  EXPECT_EQ(metrics.shuffle.thread_fallbacks, 1u);
  EXPECT_EQ(metrics.shuffle.worker_retries, 1u);
}

// The fallback composes with whole strategies: a worker slot that dies on
// every attempt of every round degrades each round to the thread backend
// and the job still matches the serial reference exactly.
TEST(FaultTolerance, FallbackKeepsWholeStrategiesByteIdentical) {
  const Graph graph = TestGraph();
  const SampleGraph triangle = SampleGraph::Triangle();
  const StrategyRun expected =
      RunStrategy(triangle, graph, "tworound", ExecutionPolicy::Serial());

  FaultInjector injector(ParseFaultPlan("map:kill:0:after=0:times=99"));
  const StrategyRun got = RunStrategy(
      triangle, graph, "tworound",
      FaultyPolicy(4, &injector, /*max_attempts=*/2)
          .WithOnExhausted(OnExhausted::kFallbackThread));
  EXPECT_EQ(got.instances, expected.instances);
  EXPECT_EQ(got.assignments, expected.assignments);
  EXPECT_TRUE(got.metrics == expected.metrics);
  EXPECT_TRUE(got.job == expected.job);
  EXPECT_GE(TotalFallbacks(got.job), 1u);
}

// ---------------------------------------------------------------------------
// Golden pin: the paper's Fig. 1 scenario survives losing a mapper
// ---------------------------------------------------------------------------

TEST(FaultTolerance, GoldenFig1TriangleCountSurvivesAMapperKill) {
  const Graph g = ErdosRenyi(2000, 20000, 42);
  FaultInjector injector(ParseFaultPlan("map:kill:1:after=5"));
  const StrategyRun got = RunStrategy(SampleGraph::Triangle(), g, "bucket:6",
                                      FaultyPolicy(3, &injector));
  EXPECT_EQ(got.instances, 1388u);
  EXPECT_EQ(injector.fires(), 1u);
  EXPECT_EQ(TotalRetries(got.job), 1u);
}

// ---------------------------------------------------------------------------
// FaultPlan grammar
// ---------------------------------------------------------------------------

TEST(FaultPlanGrammar, ParsesSpecsOptionsAndSeed) {
  const FaultPlan plan = ParseFaultPlan(
      " map:kill:0 ; reduce : stall : 1 : after=3 ;"
      " map:corrupt:2:after=5:times=2 ; seed=9 ;; map:spillfail:0 ");
  ASSERT_EQ(plan.faults.size(), 4u);
  EXPECT_EQ(plan.seed, 9u);

  EXPECT_EQ(plan.faults[0].role, WorkerRole::kMap);
  EXPECT_EQ(plan.faults[0].kind, FaultKind::kKillAfterFrames);
  EXPECT_EQ(plan.faults[0].worker, 0u);
  EXPECT_EQ(plan.faults[0].times, 1u);
  EXPECT_LT(plan.faults[0].after_frames, 8u);  // seed-derived default

  EXPECT_EQ(plan.faults[1].role, WorkerRole::kReduce);
  EXPECT_EQ(plan.faults[1].kind, FaultKind::kStallLink);
  EXPECT_EQ(plan.faults[1].worker, 1u);
  EXPECT_EQ(plan.faults[1].after_frames, 3u);

  EXPECT_EQ(plan.faults[2].kind, FaultKind::kCorruptFrame);
  EXPECT_EQ(plan.faults[2].after_frames, 5u);
  EXPECT_EQ(plan.faults[2].times, 2u);

  EXPECT_EQ(plan.faults[3].kind, FaultKind::kFailSpillAppend);
}

TEST(FaultPlanGrammar, DerivedAfterFramesAreDeterministic) {
  const FaultPlan first = ParseFaultPlan("map:kill:0;seed=7");
  const FaultPlan second = ParseFaultPlan("map:kill:0;seed=7");
  ASSERT_EQ(first.faults.size(), 1u);
  EXPECT_EQ(first.faults[0].after_frames, second.faults[0].after_frames);
  EXPECT_LT(first.faults[0].after_frames, 8u);

  EXPECT_TRUE(ParseFaultPlan("").faults.empty());
}

TEST(FaultPlanGrammar, RejectsMalformedPlansLoudly) {
  const struct {
    const char* plan;
    const char* message;
  } kBad[] = {
      {"map:kill", "needs role:kind:worker"},
      {"cook:kill:0", "role must be map or reduce"},
      {"map:melt:0", "kind must be kill, stall, corrupt"},
      {"reduce:spillfail:0", "role must be map"},
      {"map:kill:zero", "worker index needs a nonnegative integer"},
      {"map:kill:0:after=soon", "after needs a nonnegative integer"},
      {"map:kill:0:times=0", "times must be >= 1"},
      {"map:kill:0:when=now", "unknown option"},
      {"seed=letters", "seed needs a nonnegative integer"},
  };
  for (const auto& bad : kBad) {
    try {
      ParseFaultPlan(bad.plan);
      FAIL() << bad.plan << " must be rejected";
    } catch (const std::invalid_argument& error) {
      EXPECT_TRUE(Contains(error.what(), "fault plan:")) << error.what();
      EXPECT_TRUE(Contains(error.what(), bad.message))
          << bad.plan << " -> " << error.what();
    }
  }
}

TEST(FaultPlanGrammar, EnvInjectorTracksTheVariable) {
  ASSERT_EQ(setenv("SMR_FAULT_PLAN", "map:kill:0:after=2", 1), 0);
  FaultInjector* injector = EnvFaultInjector();
  ASSERT_NE(injector, nullptr);
  ASSERT_EQ(injector->plan().faults.size(), 1u);
  EXPECT_EQ(injector->plan().faults[0].after_frames, 2u);
  // Same value: the cached injector (and its `times` bookkeeping) persists.
  EXPECT_EQ(EnvFaultInjector(), injector);

  ASSERT_EQ(unsetenv("SMR_FAULT_PLAN"), 0);
  EXPECT_EQ(EnvFaultInjector(), nullptr);
}

// ---------------------------------------------------------------------------
// Policy spec plumbing for the CLI flags
// ---------------------------------------------------------------------------

TEST(FaultPolicySpec, ParsesRetriesDeadlineAndFallback) {
  const ExecutionPolicy policy =
      PolicyFromSpecs("1", "partition", "auto", "on", "0", "process:4", "2",
                      "30000", "fallback");
  EXPECT_EQ(policy.retry.max_attempts, 3u);  // 2 retries = 3 attempts
  EXPECT_EQ(policy.worker_deadline_ms, 30000u);
  EXPECT_EQ(policy.on_exhausted, OnExhausted::kFallbackThread);

  const std::string described = DescribePolicy(policy);
  EXPECT_TRUE(Contains(described, "process backend (4 workers)"))
      << described;
  EXPECT_TRUE(Contains(described, "2 retries")) << described;
  EXPECT_TRUE(Contains(described, "deadline 30000 ms")) << described;
  EXPECT_TRUE(Contains(described, "fall back to threads")) << described;

  const std::string one_retry = DescribePolicy(PolicyFromSpecs(
      "1", "partition", "auto", "on", "0", "process:2", "1", "0", "fail"));
  EXPECT_TRUE(Contains(one_retry, "1 retry")) << one_retry;
  EXPECT_TRUE(Contains(one_retry, "no deadline")) << one_retry;

  // Defaults print exactly as before the fault-tolerance knobs existed.
  const std::string plain = DescribePolicy(
      PolicyFromSpecs("1", "partition", "auto", "on", "0", "process:4"));
  EXPECT_FALSE(Contains(plain, "retr")) << plain;
  EXPECT_FALSE(Contains(plain, "deadline")) << plain;
}

// poll() takes an int timeout, and a negative one waits forever: a
// deadline above INT_MAX ms must clamp, never wrap into "no deadline".
TEST(FaultPolicySpec, DeadlineTimeoutClampsToIntMax) {
  EXPECT_EQ(ExecutionPolicy().WithDeadline(0).DeadlineTimeoutMs(), -1);
  EXPECT_EQ(ExecutionPolicy().WithDeadline(400).DeadlineTimeoutMs(), 400);
  EXPECT_EQ(ExecutionPolicy()
                .WithDeadline(static_cast<uint32_t>(INT_MAX))
                .DeadlineTimeoutMs(),
            INT_MAX);
  EXPECT_EQ(ExecutionPolicy()
                .WithDeadline(static_cast<uint32_t>(INT_MAX) + 1)
                .DeadlineTimeoutMs(),
            INT_MAX);
  EXPECT_EQ(ExecutionPolicy().WithDeadline(UINT32_MAX).DeadlineTimeoutMs(),
            INT_MAX);
}

TEST(FaultPolicySpec, RejectsBadFaultKnobs) {
  EXPECT_THROW(PolicyFromSpecs("1", "partition", "auto", "on", "0", "thread",
                               "-1"),
               std::invalid_argument);
  EXPECT_THROW(PolicyFromSpecs("1", "partition", "auto", "on", "0", "thread",
                               "101"),
               std::invalid_argument);
  EXPECT_THROW(PolicyFromSpecs("1", "partition", "auto", "on", "0", "thread",
                               "0", "soon"),
               std::invalid_argument);
  EXPECT_THROW(PolicyFromSpecs("1", "partition", "auto", "on", "0", "thread",
                               "0", "", "maybe"),
               std::invalid_argument);
}

}  // namespace
}  // namespace smr
