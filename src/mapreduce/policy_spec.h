#ifndef SMR_MAPREDUCE_POLICY_SPEC_H_
#define SMR_MAPREDUCE_POLICY_SPEC_H_

#include <string>
#include <string_view>

#include "mapreduce/execution_policy.h"

namespace smr {

/// Textual specs for ExecutionPolicy knobs — the one parser shared by
/// smr_cli, tests, and benches, with checked numeric parsing throughout
/// (garbage and overflow raise std::invalid_argument instead of silently
/// running with 0). Specs:
///
///   threads  "N"               0 = one per hardware context
///   shuffle  "partition[:P]"   P = key-range partition count (default
///                              auto; 1 = one global partition). The
///                              removed "sort" shuffle throws.
///   group    "auto"            the only grouping; the removed "counting"
///                              and "sort" modes throw
///   combine  "on" | "off"
///   budget   "0" | "BYTES"     shuffle memory budget; byte-size suffixes
///            ("64K", "512M", "2G") accepted, 0 = unbounded (never spill)
///   backend  "thread"          in-process worker threads (the default)
///            "process[:N]"     N forked worker processes shuffling over
///                              real sockets (default N = threads)
///   retries  "R"               0 <= R <= 100 extra attempts per failed
///                              process-backend worker (0 = fail fast)
///   deadline "MS"              per-worker liveness deadline in
///            ""                milliseconds (0 = none); "" keeps the
///                              policy default
///   on_exhausted "fail"        throw WorkerError when retries run out
///            "fallback"        rerun the round on the thread backend
///
/// Every spec changes only host scheduling, never results.
ExecutionPolicy PolicyFromSpecs(std::string_view threads,
                                std::string_view shuffle,
                                std::string_view group,
                                std::string_view combine,
                                std::string_view budget = "0",
                                std::string_view backend = "thread",
                                std::string_view retries = "0",
                                std::string_view deadline_ms = "",
                                std::string_view on_exhausted = "fail");

/// One-line human-readable summary of what runs ("4 threads,
/// 16 partitions, combine on", plus budget and process backend when set).
std::string DescribePolicy(const ExecutionPolicy& policy);

}  // namespace smr

#endif  // SMR_MAPREDUCE_POLICY_SPEC_H_
