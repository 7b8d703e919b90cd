#include "mapreduce/policy_spec.h"

#include <optional>
#include <sstream>
#include <stdexcept>

#include "util/enum_registry.h"
#include "util/parse.h"

namespace smr {

namespace {

[[noreturn]] void PolicyError(const std::string& message) {
  throw std::invalid_argument("policy spec: " + message);
}

/// Parses a bare enum token through its registry, so the parser's
/// vocabulary — and its error message — can never drift from the enum
/// definition: a newly registered mode is accepted (and listed on error)
/// with no edits here.
template <typename E>
E ParseEnumSpec(std::string_view token, const char* what) {
  const std::optional<E> value = EnumTraits<E>::FromName(token);
  if (!value) {
    PolicyError(std::string(what) + " must be " + EnumNameList<E>() +
                ", got '" + std::string(token) + "'");
  }
  return *value;
}

}  // namespace

ExecutionPolicy PolicyFromSpecs(std::string_view threads,
                                std::string_view shuffle,
                                std::string_view group,
                                std::string_view combine,
                                std::string_view budget,
                                std::string_view backend,
                                std::string_view retries,
                                std::string_view deadline_ms,
                                std::string_view on_exhausted) {
  const auto thread_count = ParseInt64(threads);
  if (!thread_count || *thread_count < 0 ||
      *thread_count > 1 << 20) {
    PolicyError("threads needs a nonnegative integer (0 = max parallel), "
                "got '" + std::string(threads) + "'");
  }
  ExecutionPolicy policy =
      *thread_count == 0
          ? ExecutionPolicy::MaxParallel()
          : ExecutionPolicy::WithThreads(static_cast<unsigned>(*thread_count));

  // shuffle: "partition" with an optional :P count; group: "auto" only.
  // The other tokens named removed modes, so their errors say so.
  const size_t shuffle_colon = shuffle.find(':');
  if (shuffle.substr(0, shuffle_colon) != "partition") {
    PolicyError("shuffle must be partition[:P] (the sort shuffle was "
                "removed; partition:1 is its equivalent), got '" +
                std::string(shuffle) + "'");
  }
  if (shuffle_colon != std::string_view::npos) {
    // Everything after "partition:" must be a valid count — a trailing
    // colon with nothing behind it is rejected, not defaulted.
    const auto partitions = ParseInt64(shuffle.substr(shuffle_colon + 1));
    if (!partitions || *partitions < 1 || *partitions > 1 << 20) {
      PolicyError("shuffle partition:P needs P >= 1, got '" +
                  std::string(shuffle) + "'");
    }
    policy = policy.WithPartitions(static_cast<unsigned>(*partitions));
  }

  if (group != "auto") {
    PolicyError("group must be auto (the counting and sort grouping modes "
                "were removed), got '" + std::string(group) + "'");
  }

  if (combine == "off") {
    policy = policy.WithCombine(false);
  } else if (combine != "on") {
    PolicyError("combine must be on or off, got '" + std::string(combine) +
                "'");
  }

  const auto budget_bytes = ParseByteSize(budget);
  if (!budget_bytes) {
    PolicyError("budget needs a byte size (e.g. 0, 4096, 64K, 512M, 2G), "
                "got '" + std::string(budget) + "'");
  }
  policy = policy.WithBudget(*budget_bytes);

  // backend: a registered BackendMode name; "process" additionally accepts
  // an explicit :N worker count on top of the registry token.
  const size_t backend_colon = backend.find(':');
  const std::string_view backend_name = backend.substr(0, backend_colon);
  if (EnumTraits<BackendMode>::FromName(backend_name) ==
      BackendMode::kProcess) {
    unsigned workers = 0;  // 0 = num_threads
    if (backend_colon != std::string_view::npos) {
      // Everything after "process:" must be a valid worker count — a
      // trailing colon with nothing behind it is rejected, not defaulted.
      const auto parsed = ParseInt64(backend.substr(backend_colon + 1));
      if (!parsed || *parsed < 1 || *parsed > 1 << 10) {
        PolicyError("backend process:N needs 1 <= N <= 1024, got '" +
                    std::string(backend) + "'");
      }
      workers = static_cast<unsigned>(*parsed);
    }
    policy = policy.WithBackend(BackendMode::kProcess, workers);
  } else {
    policy = policy.WithBackend(
        ParseEnumSpec<BackendMode>(backend, "backend (optionally :N)"));
  }

  const auto retry_count = ParseInt64(retries);
  if (!retry_count || *retry_count < 0 || *retry_count > 100) {
    PolicyError("retries needs an integer in [0, 100], got '" +
                std::string(retries) + "'");
  }
  if (*retry_count > 0) {
    policy = policy.WithRetry(
        RetryPolicy{static_cast<unsigned>(1 + *retry_count), 0, 2.0});
  }

  if (!deadline_ms.empty()) {
    const auto deadline = ParseInt64(deadline_ms);
    if (!deadline || *deadline < 0 || *deadline > 86'400'000) {
      PolicyError("deadline needs milliseconds in [0, 86400000] "
                  "(0 = no deadline), got '" + std::string(deadline_ms) +
                  "'");
    }
    policy = policy.WithDeadline(static_cast<uint32_t>(*deadline));
  }

  policy = policy.WithOnExhausted(
      ParseEnumSpec<OnExhausted>(on_exhausted, "on_exhausted"));
  return policy;
}

std::string DescribePolicy(const ExecutionPolicy& policy) {
  std::ostringstream os;
  os << policy.num_threads
     << (policy.num_threads == 1 ? " thread, " : " threads, ");
  os << policy.EffectivePartitions()
     << (policy.EffectivePartitions() == 1 ? " partition" : " partitions");
  os << ", combine " << (policy.combine ? "on" : "off");
  if (policy.shuffle_budget_bytes > 0) {
    os << ", budget " << policy.shuffle_budget_bytes << " bytes";
  }
  if (policy.backend == BackendMode::kProcess) {
    os << ", process backend ("
       << (policy.process_workers > 0 ? policy.process_workers
                                      : policy.num_threads)
       << " workers)";
    // Fault-tolerance knobs are printed only when they differ from the
    // defaults, so fault-free invocations read exactly as before.
    if (policy.retry.max_attempts > 1) {
      os << ", " << (policy.retry.max_attempts - 1) << " retr"
         << (policy.retry.max_attempts == 2 ? "y" : "ies");
    }
    if (policy.worker_deadline_ms !=
        ExecutionPolicy::kDefaultWorkerDeadlineMs) {
      if (policy.worker_deadline_ms == 0) {
        os << ", no deadline";
      } else {
        os << ", deadline " << policy.worker_deadline_ms << " ms";
      }
    }
    if (policy.on_exhausted == OnExhausted::kFallbackThread) {
      os << ", fall back to threads";
    }
  }
  return os.str();
}

}  // namespace smr
