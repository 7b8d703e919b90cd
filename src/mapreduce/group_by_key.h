#ifndef SMR_MAPREDUCE_GROUP_BY_KEY_H_
#define SMR_MAPREDUCE_GROUP_BY_KEY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace smr {
namespace engine_internal {

/// Sort-free grouping: the engine's one grouping primitive. The bucket
/// store (mapreduce/local_round.h) groups each unspilled partition with it
/// and, one bucket at a time, a spilled partition's runs and resident tails
/// (SpillChannel in mapreduce/spill.h), so a budgeted round groups at the
/// same per-pair cost as an unbudgeted one.
///
/// A partition is grouped by a counting scatter in three scans of its
/// per-worker buckets (all sequential and branch-cheap):
///
///   1. find [lo, hi], which sizes the histogram;
///   2. fill a histogram of bin frequencies over [lo, hi], then turn it
///      into each bin's start offset by an in-place prefix sum;
///   3. scatter every pair to its bin's next slot, visiting buckets in
///      worker order.
///
/// The engine's strategies keep their reducer ranks *dense* in a declared
/// key_space, which makes each partition's key range a small contiguous
/// window: when spread = hi - lo < kAutoSparsityCap x pairs, every key
/// gets its own bin and the scatter alone groups the partition in O(n).
///
/// Sparse partitions (a key space like the two-round join's u * n + w, or
/// stray keys clamped into the last partition) use a *binned* scatter
/// instead: bin = (key - lo) >> shift, with the smallest shift that keeps
/// the bin count at most min(kAutoSparsityCap x pairs, kMaxSparseBins), and
/// then each bin is sorted by key — a stable insertion sort for bins of at
/// most kInsertionSortMax pairs, std::stable_sort for larger ones (one
/// stray key far above the rest puts them all in bin 0, which then costs
/// what a whole-partition stable_sort did).
///
/// Both scatters are stable by construction — workers are visited in
/// ascending order and each bucket in stored order — and the in-bin sorts
/// are stable, so equal keys land in exactly the order a worker-order
/// concatenation + stable_sort would produce. Keys come out ascending
/// because bins are ordered by key. The choice of grouping therefore never
/// changes results, only host cost. Only partitions too large for the
/// 32-bit histogram counters take the plain concatenate + stable_sort
/// path.

/// Per-key counting engages when spread < kAutoSparsityCap x pairs
/// (i.e. pairs > spread / 4).
inline constexpr uint64_t kAutoSparsityCap = 4;

/// Bin-count cap of the sparse (binned) scatter: a 2^16-entry histogram of
/// 32-bit counters is 256 KiB, which stays in L2. Fewer, wider bins leave
/// more pairs per bin to sort; more bins cost cache misses in the scatter.
inline constexpr uint64_t kMaxSparseBins = uint64_t{1} << 16;

/// Bins of at most this many pairs are sorted by insertion, larger ones by
/// std::stable_sort. It also bounds insertion sort's worst case, a bin
/// emitted in descending key order.
inline constexpr size_t kInsertionSortMax = 32;

/// Sorts [first, last), which holds at least two pairs, by key, keeping the
/// order of equal keys.
template <typename Pair>
void StableSortBin(Pair* first, Pair* last) {
  if (last - first > static_cast<std::ptrdiff_t>(kInsertionSortMax)) {
    std::stable_sort(first, last, [](const Pair& a, const Pair& b) {
      return a.first < b.first;
    });
    return;
  }
  for (Pair* i = first + 1; i < last; ++i) {
    if ((i - 1)->first <= i->first) continue;
    Pair moving = std::move(*i);
    Pair* j = i;
    do {
      *j = std::move(*(j - 1));
      --j;
    } while (j > first && moving.first < (j - 1)->first);
    *j = std::move(moving);
  }
}

/// Groups one partition's per-worker buckets (in worker order — the serial
/// emission order of the partition's key range) into `*out`: ascending key,
/// emission order within a key. `pair_count` must equal the buckets' total
/// size. `counts` is reusable scratch for the histogram (kept allocated
/// across partitions by the reduce workers). The buckets are copied from,
/// never changed, so grouping them again gives the same result.
/// Returns true if the per-key counting scatter ran, false if the binned
/// scatter or the sort path did.
template <typename Value>
bool GroupByKey(
    std::span<std::vector<std::pair<uint64_t, Value>>* const> buckets,
    size_t pair_count,
    std::vector<std::pair<uint64_t, Value>>* out,
    std::vector<uint32_t>* counts) {
  using Pair = std::pair<uint64_t, Value>;
  out->clear();
  if (pair_count == 0) return false;

  if (pair_count <= std::numeric_limits<uint32_t>::max()) {
    uint64_t lo = std::numeric_limits<uint64_t>::max();
    uint64_t hi = 0;
    for (const auto* bucket : buckets) {
      for (const Pair& pair : *bucket) {
        lo = std::min(lo, pair.first);
        hi = std::max(hi, pair.first);
      }
    }
    // spread = range - 1, which cannot overflow even for lo=0,
    // hi=UINT64_MAX (where range itself would).
    const uint64_t spread = hi - lo;
    const uint64_t dense_bins =
        kAutoSparsityCap * static_cast<uint64_t>(pair_count);
    const bool per_key = spread < dense_bins;
    unsigned shift = 0;
    if (!per_key) {
      const uint64_t max_bins = std::min(dense_bins, kMaxSparseBins);
      while ((spread >> shift) >= max_bins) ++shift;
    }
    const size_t bins = static_cast<size_t>(spread >> shift) + 1;
    // counts[b + 1] = size of bin b; the shifted slot makes the in-place
    // prefix sum below yield start offsets directly.
    counts->assign(bins + 1, 0);
    for (const auto* bucket : buckets) {
      for (const Pair& pair : *bucket) {
        ++(*counts)[((pair.first - lo) >> shift) + 1];
      }
    }
    for (size_t i = 1; i <= bins; ++i) (*counts)[i] += (*counts)[i - 1];
    out->resize(pair_count);
    for (const auto* bucket : buckets) {
      for (const Pair& pair : *bucket) {
        (*out)[(*counts)[(pair.first - lo) >> shift]++] = pair;
      }
    }
    if (per_key) return true;
    // After the scatter, counts[b] is bin b's end offset.
    Pair* const data = out->data();
    uint32_t begin = 0;
    for (size_t b = 0; b < bins; ++b) {
      const uint32_t end = (*counts)[b];
      if (end - begin > 1) StableSortBin(data + begin, data + end);
      begin = end;
    }
    return false;
  }

  out->reserve(pair_count);
  for (const auto* bucket : buckets) {
    out->insert(out->end(), bucket->begin(), bucket->end());
  }
  std::stable_sort(
      out->begin(), out->end(),
      [](const Pair& a, const Pair& b) { return a.first < b.first; });
  return false;
}

}  // namespace engine_internal
}  // namespace smr

#endif  // SMR_MAPREDUCE_GROUP_BY_KEY_H_
