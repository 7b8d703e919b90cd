// JobDriver pipeline tests: the two-round triangle pipeline is pinned
// against the metrics the hand-wired pre-refactor implementation produced
// (captured from the seed tree on the same graph), and the JobMetrics
// aggregation and record-channel threading are exercised directly.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/two_round_triangles.h"
#include "graph/generators.h"
#include "graph/node_order.h"
#include "mapreduce/job.h"

namespace smr {
namespace {

TEST(JobDriver, TwoRoundTrianglesMatchesPreRefactorGoldens) {
  // Golden values captured from the pre-RoundSpec implementation (commit
  // cbd9824) on exactly this graph and order. The refactor moved the
  // 2-path hand-off from a shared vector to the engine's record channel;
  // every metric of both rounds must be unchanged.
  const Graph g = ErdosRenyi(500, 3000, 42);
  const NodeOrder order = NodeOrder::ByDegree(g);
  const TwoRoundMetrics result = TwoRoundTriangles(g, order, nullptr);

  EXPECT_EQ(result.round1.input_records, 3000u);
  EXPECT_EQ(result.round1.key_value_pairs, 3000u);
  EXPECT_EQ(result.round1.bytes, 36000u);
  EXPECT_EQ(result.round1.distinct_keys, 485u);
  EXPECT_EQ(result.round1.key_space, 500u);
  EXPECT_EQ(result.round1.max_reducer_input, 11u);
  EXPECT_EQ(result.round1.outputs, 0u);
  EXPECT_EQ(result.round1.reduce_cost.edges_scanned, 3000u);
  EXPECT_EQ(result.round1.reduce_cost.candidates, 9188u);
  EXPECT_EQ(result.round1.reduce_cost.outputs, 0u);

  EXPECT_EQ(result.round2.input_records, 12188u);
  EXPECT_EQ(result.round2.key_value_pairs, 12188u);
  EXPECT_EQ(result.round2.bytes, 195008u);
  EXPECT_EQ(result.round2.distinct_keys, 11149u);
  EXPECT_EQ(result.round2.key_space, 250000u);
  EXPECT_EQ(result.round2.max_reducer_input, 5u);
  EXPECT_EQ(result.round2.outputs, 265u);
  EXPECT_EQ(result.round2.reduce_cost.edges_scanned, 12188u);
  EXPECT_EQ(result.round2.reduce_cost.candidates, 265u);
  EXPECT_EQ(result.round2.reduce_cost.outputs, 265u);

  EXPECT_EQ(result.TotalKeyValuePairs(), 15188u);
}

TEST(JobDriver, TwoRoundPipelineDeterministicAcrossPolicies) {
  // Round 1 used to be forced serial (its reducer appended to a shared
  // vector); through the record channel it now parallelizes — and both
  // rounds must stay byte-identical to the serial run.
  const Graph g = ErdosRenyi(500, 3000, 42);
  const NodeOrder order = NodeOrder::ByDegree(g);
  CollectingSink serial_sink;
  const TwoRoundMetrics serial = TwoRoundTriangles(g, order, &serial_sink);
  for (const unsigned threads : {2u, 8u}) {
    for (const unsigned partitions : {1u, 0u /* auto */}) {
      CollectingSink sink;
      const TwoRoundMetrics parallel = TwoRoundTriangles(
          g, order, &sink,
          ExecutionPolicy::WithThreads(threads).WithPartitions(partitions));
      EXPECT_EQ(parallel.round1, serial.round1) << "threads=" << threads;
      EXPECT_EQ(parallel.round2, serial.round2) << "threads=" << threads;
      EXPECT_EQ(sink.assignments(), serial_sink.assignments())
          << "threads=" << threads;
    }
  }
}

TEST(JobDriver, AggregatesPerRoundMetricsIntoJobSummary) {
  const Graph g = ErdosRenyi(200, 1200, 9);
  const NodeOrder order = NodeOrder::ByDegree(g);
  const TwoRoundMetrics result = TwoRoundTriangles(g, order, nullptr);

  ASSERT_EQ(result.job.rounds.size(), 2u);
  EXPECT_EQ(result.job.rounds[0].name, "two-paths");
  EXPECT_EQ(result.job.rounds[1].name, "join");
  EXPECT_EQ(result.job.TotalCommunication(), result.TotalKeyValuePairs());
  EXPECT_EQ(result.job.TotalPairsShipped(), result.TotalKeyValuePairs());
  EXPECT_EQ(result.job.MaxRoundReducers(),
            std::max(result.round1.distinct_keys, result.round2.distinct_keys));
  EXPECT_EQ(result.job.TotalOutputs(), result.round2.outputs);

  const std::string table = result.job.RoundTable();
  EXPECT_NE(table.find("two-paths"), std::string::npos);
  EXPECT_NE(table.find("join"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
}

TEST(JobDriver, RecordChannelThreadsRoundsDeterministically) {
  // A synthetic 2-round pipeline: round 1 buckets values and records each
  // (bucket, value) survivor; round 2 consumes the records. Exercises the
  // record channel directly under every policy.
  std::vector<int> inputs(700);
  for (size_t i = 0; i < inputs.size(); ++i) inputs[i] = static_cast<int>(i);

  const RoundSpec<int, uint64_t> first{
      "bucket",
      [](const int& input, Emitter<uint64_t>* out) {
        out->Emit(static_cast<uint64_t>(input % 13),
                  static_cast<uint64_t>(input));
      },
      [](uint64_t key, std::span<const uint64_t> values,
         ReduceContext* context) {
        for (const uint64_t value : values) {
          if (value % 3 == 0) {
            const std::array<NodeId, 2> record = {
                static_cast<NodeId>(key), static_cast<NodeId>(value)};
            context->EmitRecord(record);
          }
        }
      },
      13,
      {}};
  const RoundSpec<NodeId, uint64_t> second{
      "sum-per-bucket",
      [](const NodeId& node, Emitter<uint64_t>* out) { out->Emit(node % 5, 1); },
      [](uint64_t key, std::span<const uint64_t> values,
         ReduceContext* context) {
        uint64_t total = 0;
        for (const uint64_t value : values) total += value;
        const std::array<NodeId, 2> instance = {static_cast<NodeId>(key),
                                                static_cast<NodeId>(total)};
        context->EmitInstance(instance);
      },
      5,
      [](uint64_t& acc, const uint64_t& incoming) { acc += incoming; }};

  auto run = [&](const ExecutionPolicy& policy, CollectingSink* sink) {
    JobDriver driver(policy);
    RecordBuffer survivors(2);
    driver.RunRound(first, inputs, nullptr, &survivors);
    driver.RunRound(second, survivors.nodes(), sink);
    return driver.job();
  };

  CollectingSink serial_sink;
  const JobMetrics serial = run(ExecutionPolicy::Serial(), &serial_sink);
  ASSERT_EQ(serial.rounds.size(), 2u);
  ASSERT_GT(serial.TotalOutputs(), 0u);

  for (const unsigned threads : {2u, 8u}) {
    for (const bool combine : {false, true}) {
      CollectingSink sink;
      const JobMetrics parallel = run(
          ExecutionPolicy::WithThreads(threads).WithCombine(combine), &sink);
      EXPECT_EQ(sink.assignments(), serial_sink.assignments())
          << "threads=" << threads << " combine=" << combine;
      EXPECT_EQ(parallel.rounds[0].metrics, serial.rounds[0].metrics)
          << "threads=" << threads;
      EXPECT_EQ(parallel.rounds[1].metrics.outputs,
                serial.rounds[1].metrics.outputs)
          << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace smr
