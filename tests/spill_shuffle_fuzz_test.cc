// Differential property test for the memory-bounded spilling shuffle
// (mapreduce/spill.h): random counting and enumeration workloads, run
// under every budget x partition count x thread count combination, must
// be byte-identical — same sink emissions in the same order, same semantic
// metrics — to the unbounded reference (the test-side ReferenceRound for
// the enumeration grid, the unbounded serial engine elsewhere). The budget knob may change
// ShuffleStats' spill counters and nothing else; that exact equality is
// the acceptance oracle of the spill subsystem.
//
// Alongside equality the test pins the two quantitative contracts:
//  * the memory bound — resident shuffle bytes left at the end of the map
//    phase (shuffle_bytes - bytes_spilled) never exceed
//    budget + workers x (page + record) + record, the invariant of the
//    page-granular spill trigger (see PagePool); and
//  * no silent fallback — whenever a round emits more than that bound the
//    engine must actually have spilled (pages_spilled > 0), so a
//    regression that quietly reverts to the in-memory path cannot pass.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mapreduce/job.h"
#include "mapreduce/spill.h"
#include "tests/test_util.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace smr {
namespace {

const unsigned kThreadCounts[] = {1, 2, 4, 8};
// Comfortable (1 MiB), exactly one page, and 4 KiB — below the spill floor
// (PagePool::kSpillFloorBytes, half a page), so the pool is over budget at
// every charge step and the last budget exercises the "own resident >=
// spill floor" leg of the spill trigger.
const uint64_t kBudgets[] = {uint64_t{1} << 20, PagePool::kPageBytes,
                             4 * 1024};

/// One randomized round, identical in spirit to engine_shuffle_fuzz_test:
/// map/reduce callbacks are pure functions of (input, spec) so every
/// engine configuration sees the same round.
struct FuzzRound {
  uint64_t seed = 0;
  uint64_t key_space = 0;  // 0 = undeclared (radix partitioning).
  size_t num_inputs = 0;
  bool emit_stray_keys = false;
};

std::vector<int> MakeInputs(const FuzzRound& spec) {
  std::vector<int> inputs(spec.num_inputs);
  Rng rng(spec.seed);
  for (int& value : inputs) value = static_cast<int>(rng.Below(1 << 20));
  return inputs;
}

uint64_t KeyFor(const FuzzRound& spec, int input, int emission) {
  const uint64_t h =
      SplitMix64(static_cast<uint64_t>(input) * 1315423911u + emission +
                 spec.seed);
  if (spec.key_space == 0) return h;
  if (spec.emit_stray_keys && h % 13 == 0) {
    return h % 2 == 0 ? spec.key_space + h % 5
                      : (uint64_t{1} << 63) + h % 1000;
  }
  return h % spec.key_space;
}

/// Enumeration-shaped round: several emissions per input, reducers emit
/// instances for a value subset (order-sensitive through the sink).
RoundSpec<int, int> EnumerationRound(const FuzzRound& spec) {
  auto map_fn = [spec](const int& input, Emitter<int>* out) {
    const unsigned emissions =
        SplitMix64(static_cast<uint64_t>(input) ^ spec.seed) % 4;
    for (unsigned e = 0; e < emissions; ++e) {
      out->Emit(KeyFor(spec, input, e), input + static_cast<int>(e));
    }
  };
  auto reduce_fn = [](uint64_t key, std::span<const int> values,
                      ReduceContext* context) {
    context->cost->edges_scanned += values.size();
    context->cost->index_probes += key % 5;
    for (const int v : values) {
      if (v % 3 == 0) {
        const NodeId node = static_cast<NodeId>(v);
        context->EmitInstance(std::span<const NodeId>(&node, 1));
      }
    }
  };
  return RoundSpec<int, int>{"spill-fuzz-enum", map_fn, reduce_fn,
                             spec.key_space, {}};
}

MapReduceMetrics RunEnumeration(const FuzzRound& spec,
                                const std::vector<int>& inputs,
                                InstanceSink* sink,
                                const ExecutionPolicy& policy) {
  JobDriver driver(policy);
  return driver.RunRound(EnumerationRound(spec), inputs, sink);
}

/// Counting-shaped round with a declared combiner: under a budget the
/// per-worker fold is interrupted by every spill, so one key's count
/// arrives at the reducer as several partials spread across runs and the
/// resident tail; the reduce-side fold must still reassemble the exact
/// total, and the *semantic* metrics (key_value_pairs counts logical
/// emissions) must not see any of that.
MapReduceMetrics RunCounting(const FuzzRound& spec,
                             const std::vector<int>& inputs,
                             InstanceSink* sink,
                             const ExecutionPolicy& policy) {
  auto map_fn = [spec](const int& input, Emitter<uint64_t>* out) {
    out->Emit(KeyFor(spec, input, 0), 1);
    out->Emit(KeyFor(spec, input, 1), static_cast<uint64_t>(input));
  };
  auto reduce_fn = [](uint64_t key, std::span<const uint64_t> values,
                      ReduceContext* context) {
    uint64_t total = 0;
    for (const uint64_t v : values) total += v;
    const NodeId out[2] = {static_cast<NodeId>(key & 0xffffffffu),
                           static_cast<NodeId>(total & 0xffffffffu)};
    context->EmitInstance(out);
  };
  RoundSpec<int, uint64_t> round{"spill-fuzz-count", map_fn, reduce_fn,
                                 spec.key_space, {}};
  round.combiner = [](uint64_t& acc, const uint64_t& in) { acc += in; };
  JobDriver driver(policy);
  return driver.RunRound(round, inputs, sink);
}

std::vector<ExecutionPolicy> BudgetedPolicies() {
  std::vector<ExecutionPolicy> policies;
  for (const unsigned threads : kThreadCounts) {
    for (const uint64_t budget : kBudgets) {
      for (const unsigned partitions : {1u, 0u /* auto */, 3u}) {
        policies.push_back(ExecutionPolicy::WithThreads(threads)
                               .WithPartitions(partitions)
                               .WithBudget(budget));
      }
    }
  }
  return policies;
}

std::string Describe(const ExecutionPolicy& policy) {
  return "threads=" + std::to_string(policy.num_threads) +
         " partitions=" + std::to_string(policy.shuffle_partitions) +
         " budget=" + std::to_string(policy.shuffle_budget_bytes);
}

/// The spill trigger's memory bound for a round run under `policy` with
/// per-record spill footprint `record_bytes`: the budget itself, plus one
/// page + one record of slack per map worker (a worker spills only once
/// its own resident block reaches the spill floor, and holds under a charge
/// step the pool has not seen: floor + 2 steps <= page), plus the record
/// that tipped the pool over.
uint64_t ResidentBound(const ExecutionPolicy& policy, uint64_t record_bytes) {
  return policy.shuffle_budget_bytes +
         policy.num_threads * (PagePool::kPageBytes + record_bytes) +
         record_bytes;
}

/// Asserts the two quantitative spill contracts on a finished round.
void CheckSpillAccounting(const MapReduceMetrics& metrics,
                          const ExecutionPolicy& policy,
                          uint64_t record_bytes, const std::string& label) {
  const uint64_t bound = ResidentBound(policy, record_bytes);
  const uint64_t resident =
      metrics.shuffle.shuffle_bytes - metrics.shuffle.bytes_spilled;
  EXPECT_LE(resident, bound) << label;
  if (metrics.shuffle.shuffle_bytes > bound) {
    EXPECT_GT(metrics.shuffle.pages_spilled, 0u) << label << " — a round "
        "over the resident bound must have spilled (no silent fallback)";
    EXPECT_GT(metrics.shuffle.spill_files, 0u) << label;
  }
  EXPECT_EQ(metrics.shuffle.pages_spilled == 0,
            metrics.shuffle.bytes_spilled == 0)
      << label;
}

TEST(SpillShuffleFuzz, EnumerationMatchesUnboundedReferenceExactly) {
  std::vector<FuzzRound> specs;
  Rng rng(0x5b111);
  for (uint64_t trial = 0; trial < 6; ++trial) {
    FuzzRound spec;
    spec.seed = rng.Next();
    const uint64_t key_spaces[] = {0, 7, 1000, 100000, uint64_t{1} << 62, 1};
    spec.key_space = key_spaces[trial % 6];
    spec.num_inputs = 500 + rng.Below(4000);
    spec.emit_stray_keys = trial % 2 == 0;
    specs.push_back(spec);
  }
  specs.push_back(FuzzRound{1, 10, 0, false});  // Empty round.

  constexpr uint64_t kRecordBytes = sizeof(uint64_t) + sizeof(int);
  for (const FuzzRound& spec : specs) {
    const std::vector<int> inputs = MakeInputs(spec);
    CollectingSink reference_sink;
    const MapReduceMetrics reference = ReferenceRound(
        EnumerationRound(spec), std::span<const int>(inputs),
        &reference_sink);

    for (const ExecutionPolicy& policy : BudgetedPolicies()) {
      CollectingSink sink;
      const MapReduceMetrics metrics =
          RunEnumeration(spec, inputs, &sink, policy);
      const std::string label =
          Describe(policy) + " key_space=" + std::to_string(spec.key_space) +
          " inputs=" + std::to_string(spec.num_inputs);
      EXPECT_EQ(metrics, reference) << label;
      EXPECT_EQ(sink.assignments(), reference_sink.assignments()) << label;
      CheckSpillAccounting(metrics, policy, kRecordBytes, label);
    }
  }
}

TEST(SpillShuffleFuzz, CombinerPartialsRefoldAcrossSpills) {
  constexpr uint64_t kRecordBytes = sizeof(uint64_t) + sizeof(uint64_t);
  for (const uint64_t key_space : {uint64_t{40000}, uint64_t{97}}) {
    FuzzRound spec;
    spec.seed = 0xc0113c7 + key_space;
    spec.key_space = key_space;
    spec.num_inputs = 30000;
    const std::vector<int> inputs = MakeInputs(spec);

    CollectingSink reference_sink;
    const MapReduceMetrics reference =
        RunCounting(spec, inputs, &reference_sink, ExecutionPolicy::Serial());

    bool spilled_somewhere = false;
    for (const ExecutionPolicy& policy : BudgetedPolicies()) {
      CollectingSink sink;
      const MapReduceMetrics metrics = RunCounting(spec, inputs, &sink, policy);
      const std::string label =
          Describe(policy) + " key_space=" + std::to_string(key_space);
      EXPECT_EQ(metrics, reference) << label;
      EXPECT_EQ(sink.assignments(), reference_sink.assignments()) << label;
      CheckSpillAccounting(metrics, policy, kRecordBytes, label);
      spilled_somewhere |= metrics.shuffle.pages_spilled > 0;
    }
    // The wide-key-space workload leaves the combiner little to fold, so
    // at least the small budgets must really have gone through the spill
    // machinery — otherwise this test proves nothing.
    if (key_space > 1000) {
      EXPECT_TRUE(spilled_somewhere)
          << "no configuration spilled; grow the workload";
    }
  }
}

TEST(SpillShuffleFuzz, CountingSinkFastPathMatchesUnderBudget) {
  FuzzRound spec;
  spec.seed = 0xfa57;
  spec.key_space = 5000;
  spec.num_inputs = 4000;
  spec.emit_stray_keys = true;
  const std::vector<int> inputs = MakeInputs(spec);

  CollectingSink reference_sink;
  RunEnumeration(spec, inputs, &reference_sink, ExecutionPolicy::Serial());

  for (const ExecutionPolicy& policy : BudgetedPolicies()) {
    CountingSink counting;
    const MapReduceMetrics metrics =
        RunEnumeration(spec, inputs, &counting, policy);
    EXPECT_EQ(counting.count(), reference_sink.assignments().size())
        << Describe(policy);
    EXPECT_EQ(metrics.outputs, counting.count()) << Describe(policy);
  }
}

TEST(SpillShuffleFuzz, LargeSerialRoundIsGuaranteedToSpill) {
  // Deterministic anchor: one worker, page-sized budget, and a workload
  // several times the resident bound — the round *must* spill, and must
  // still match the unbounded reference bit for bit. A silent fallback to
  // the in-memory path fails here even if every equality above passes.
  FuzzRound spec;
  spec.seed = 0xb16;
  spec.key_space = 1 << 16;
  spec.num_inputs = 60000;
  const std::vector<int> inputs = MakeInputs(spec);

  CollectingSink reference_sink;
  const MapReduceMetrics reference =
      RunEnumeration(spec, inputs, &reference_sink, ExecutionPolicy::Serial());

  const ExecutionPolicy policy =
      ExecutionPolicy::Serial().WithBudget(PagePool::kPageBytes);
  CollectingSink sink;
  const MapReduceMetrics metrics = RunEnumeration(spec, inputs, &sink, policy);
  constexpr uint64_t kRecordBytes = sizeof(uint64_t) + sizeof(int);
  ASSERT_GT(metrics.shuffle.shuffle_bytes, ResidentBound(policy, kRecordBytes))
      << "workload shrank below the spill threshold; grow num_inputs";
  EXPECT_GT(metrics.shuffle.pages_spilled, 0u);
  EXPECT_GT(metrics.shuffle.bytes_spilled, 0u);
  EXPECT_EQ(metrics.shuffle.spill_files, 1u);
  EXPECT_EQ(metrics, reference);
  EXPECT_EQ(sink.assignments(), reference_sink.assignments());
}

TEST(SpillShuffleFuzz, PartlySpilledRoundGroupsItsUnspilledPartitions) {
  // Four partitions of 1000 keys each. The first inputs emit only into
  // partition 0 and spill it eleven times under a one-page budget, the
  // last time at their last pair; the last 1200 emit only into partitions
  // 1-3, short of another spill, so those never spill and are grouped like
  // an unbudgeted round's (dense keys: the per-key counting scatter). The
  // round must still equal the reference exactly, at every thread count.
  uint64_t pairs_per_spill = 0;  // One channel's, a function of bytes only.
  {
    PagePool pool(PagePool::kPageBytes, nullptr);
    SpillChannel<int> channel(&pool, 1);
    bool spilled = false;
    while (!spilled) {
      (*channel.buckets())[0].emplace_back(0, 0);
      spilled = channel.NotifyAppend();
      ++pairs_per_spill;
    }
  }
  const int heavy = static_cast<int>(11 * pairs_per_spill);
  constexpr int kLight = 1200;
  ASSERT_LT(static_cast<uint64_t>(kLight), pairs_per_spill);
  std::vector<int> inputs(heavy + kLight);
  for (int i = 0; i < heavy + kLight; ++i) inputs[i] = i;
  auto map_fn = [heavy](const int& i, Emitter<int>* out) {
    const uint64_t key =
        i < heavy ? SplitMix64(static_cast<uint64_t>(i)) % 1000
                  : 1000 + SplitMix64(static_cast<uint64_t>(i)) % 3000;
    out->Emit(key, i);
  };
  auto reduce_fn = [](uint64_t key, std::span<const int> values,
                      ReduceContext* context) {
    for (const int v : values) {
      const NodeId out[2] = {static_cast<NodeId>(key),
                             static_cast<NodeId>(v)};
      context->EmitInstance(out);
    }
  };
  const RoundSpec<int, int> round{"partly-spilled", map_fn, reduce_fn, 4000,
                                  {}};
  CollectingSink reference_sink;
  const MapReduceMetrics reference = ReferenceRound(
      round, std::span<const int>(inputs), &reference_sink);

  for (const unsigned threads : kThreadCounts) {
    const ExecutionPolicy policy = ExecutionPolicy::WithThreads(threads)
                                       .WithPartitions(4)
                                       .WithBudget(PagePool::kPageBytes);
    CollectingSink sink;
    JobDriver driver(policy);
    const MapReduceMetrics metrics = driver.RunRound(round, inputs, &sink);
    EXPECT_EQ(metrics, reference) << Describe(policy);
    EXPECT_EQ(sink.assignments(), reference_sink.assignments())
        << Describe(policy);
    EXPECT_GT(metrics.shuffle.pages_spilled, 0u) << Describe(policy);
    if (threads == 1) {
      // One channel: partition 0 holds the only runs, and partitions 1-3
      // are grouped per key.
      EXPECT_EQ(metrics.shuffle.counting_partitions, 3u);
      EXPECT_EQ(metrics.shuffle.sorted_partitions, 0u);
    }
  }
}

TEST(SpillShuffleFuzz, MultiRoundJobPipelinesUnderBudget) {
  // Budgets apply per round inside a JobDriver pipeline; the records
  // channel threaded between rounds must carry identical intermediate
  // records, so the second round's inputs (and outputs) match exactly.
  auto run = [](const ExecutionPolicy& policy) {
    std::vector<int> inputs(20000);
    for (size_t i = 0; i < inputs.size(); ++i) {
      inputs[i] = static_cast<int>(SplitMix64(i) % 5000);
    }
    JobDriver driver(policy);
    RecordBuffer middle(1);
    auto map1 = [](const int& v, Emitter<int>* out) {
      out->Emit(static_cast<uint64_t>(v) % 997, v);
    };
    auto reduce1 = [](uint64_t, std::span<const int> values,
                      ReduceContext* context) {
      for (const int v : values) {
        if (v % 2 == 0) {
          const NodeId node = static_cast<NodeId>(v);
          context->EmitRecord(std::span<const NodeId>(&node, 1));
        }
      }
    };
    driver.RunRound(RoundSpec<int, int>{"round-1", map1, reduce1, 997, {}},
                    inputs, nullptr, &middle);
    auto map2 = [](const NodeId& v, Emitter<int>* out) {
      out->Emit(static_cast<uint64_t>(v) % 131, static_cast<int>(v));
    };
    auto reduce2 = [](uint64_t, std::span<const int> values,
                      ReduceContext* context) {
      for (const int v : values) {
        const NodeId node = static_cast<NodeId>(v);
        context->EmitInstance(std::span<const NodeId>(&node, 1));
      }
    };
    CollectingSink sink;
    driver.RunRound(RoundSpec<NodeId, int>{"round-2", map2, reduce2, 131, {}},
                    middle.nodes(), &sink);
    return sink.assignments();
  };

  const auto reference = run(ExecutionPolicy::Serial());
  for (const unsigned threads : kThreadCounts) {
    const auto budgeted =
        run(ExecutionPolicy::WithThreads(threads).WithBudget(16 * 1024));
    EXPECT_EQ(budgeted, reference) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace smr
