#ifndef SMR_MAPREDUCE_GROUP_BY_KEY_H_
#define SMR_MAPREDUCE_GROUP_BY_KEY_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace smr {
namespace engine_internal {

/// Sort-free grouping: the engine's one grouping primitive. It groups the
/// local round's resident partitions and, one bucket at a time, the spill
/// store's runs and resident tails (SpillChannel in mapreduce/spill.h), so
/// a budgeted round groups at the same per-pair cost as a resident one.
///
/// The engine's strategies keep their reducer ranks *dense* in a declared
/// key_space, which makes each partition's key range a small contiguous
/// window — exactly the precondition for O(n) counting-sort grouping. A
/// partition is grouped by a counting scatter in three scans of its
/// per-worker buckets (all sequential and branch-cheap):
///
///   1. find [lo, hi], which decides counting vs the sort fallback and
///      sizes the histogram;
///   2. fill a histogram of key frequencies over [lo, hi], then turn it
///      into each key's start offset by an in-place prefix sum;
///   3. scatter every pair to its key's next slot, visiting buckets in
///      worker order.
///
/// The scatter is stable by construction — workers are visited in
/// ascending order and each bucket in stored order, so equal keys land in
/// exactly the order a worker-order concatenation + stable_sort would
/// produce. Keys come out ascending because offsets are assigned in key
/// order. The choice of grouping therefore never changes results, only
/// host cost.
///
/// Sparse partitions (range more than kAutoSparsityCap x the pair count —
/// stray keys clamped into the last partition can stretch the range
/// arbitrarily) fall back to the concatenate + stable_sort path, as do
/// partitions too large for the 32-bit histogram counters and Value types
/// that cannot be default-constructed into the scatter buffer.

/// Counting grouping engages when range <= kAutoSparsityCap x pairs
/// (i.e. pairs >= range / 4).
inline constexpr uint64_t kAutoSparsityCap = 4;

/// Groups one partition's per-worker buckets (in worker order — the serial
/// emission order of the partition's key range) into `*out`: ascending key,
/// emission order within a key. `pair_count` must equal the buckets' total
/// size. `counts` is reusable scratch for the histogram (kept allocated
/// across partitions by the reduce workers). Buckets are moved-from.
/// Returns true if the counting scatter ran, false for the sort path.
template <typename Value>
bool GroupByKey(
    std::span<std::vector<std::pair<uint64_t, Value>>* const> buckets,
    size_t pair_count,
    std::vector<std::pair<uint64_t, Value>>* out,
    std::vector<uint32_t>* counts) {
  using Pair = std::pair<uint64_t, Value>;
  out->clear();
  if (pair_count == 0) return false;

  bool use_counting = false;
  uint64_t lo = std::numeric_limits<uint64_t>::max();
  uint64_t hi = 0;
  if constexpr (std::is_default_constructible_v<Value>) {
    if (pair_count <= std::numeric_limits<uint32_t>::max()) {
      for (const auto* bucket : buckets) {
        for (const Pair& pair : *bucket) {
          lo = std::min(lo, pair.first);
          hi = std::max(hi, pair.first);
        }
      }
      // spread = range - 1, which cannot overflow even for lo=0,
      // hi=UINT64_MAX (where range itself would).
      const uint64_t spread = hi - lo;
      use_counting =
          spread < kAutoSparsityCap * static_cast<uint64_t>(pair_count);
    }
  }

  if (!use_counting) {
    out->reserve(pair_count);
    for (auto* bucket : buckets) {
      std::move(bucket->begin(), bucket->end(), std::back_inserter(*out));
    }
    std::stable_sort(
        out->begin(), out->end(),
        [](const Pair& a, const Pair& b) { return a.first < b.first; });
    return false;
  }

  if constexpr (std::is_default_constructible_v<Value>) {
    const size_t range = static_cast<size_t>(hi - lo) + 1;
    // counts[k - lo + 1] = multiplicity of key k; the shifted slot makes
    // the in-place prefix sum below yield start offsets directly.
    counts->assign(range + 1, 0);
    for (const auto* bucket : buckets) {
      for (const Pair& pair : *bucket) {
        ++(*counts)[pair.first - lo + 1];
      }
    }
    for (size_t i = 1; i <= range; ++i) (*counts)[i] += (*counts)[i - 1];
    out->resize(pair_count);
    for (auto* bucket : buckets) {
      for (Pair& pair : *bucket) {
        (*out)[(*counts)[pair.first - lo]++] = std::move(pair);
      }
    }
  }
  return true;
}

}  // namespace engine_internal
}  // namespace smr

#endif  // SMR_MAPREDUCE_GROUP_BY_KEY_H_
