// Differential tests of the vectorized sorted-set primitives: every
// per-level variant (scalar / SSE4.2 / AVX2 x count / into / contains) must
// agree exactly with std::set_intersection / std::binary_search on the same
// inputs, across adversarial size and overlap profiles. The SIMD paths
// being exact drop-ins for the scalar one is what keeps enumeration output
// byte-identical across ISAs, so these tests are the load-bearing wall.
// RankWindow, which cuts a rank-sorted row before such an intersection, is
// checked against a linear filter.

#include "graph/intersect.h"
#include "graph/rank_window.h"

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "gtest/gtest.h"
#include "util/arena.h"

namespace smr {
namespace {

using intersect_detail::ContainsSortedAvx2;
using intersect_detail::ContainsSortedScalar;
using intersect_detail::ContainsSortedSse42;
using intersect_detail::IntersectCountAvx2;
using intersect_detail::IntersectCountScalar;
using intersect_detail::IntersectCountSse42;
using intersect_detail::IntersectIntoAvx2;
using intersect_detail::IntersectIntoScalar;
using intersect_detail::IntersectIntoSse42;

struct Variant {
  const char* name;
  SimdLevel level;
  size_t (*count)(std::span<const NodeId>, std::span<const NodeId>);
  size_t (*into)(std::span<const NodeId>, std::span<const NodeId>, NodeId*);
  bool (*contains)(std::span<const NodeId>, NodeId);
};

std::vector<Variant> SupportedVariants() {
  std::vector<Variant> variants = {{"scalar", SimdLevel::kScalar,
                                    IntersectCountScalar, IntersectIntoScalar,
                                    ContainsSortedScalar}};
  if (SimdLevelSupported(SimdLevel::kSse42)) {
    variants.push_back({"sse4.2", SimdLevel::kSse42, IntersectCountSse42,
                        IntersectIntoSse42, ContainsSortedSse42});
  }
  if (SimdLevelSupported(SimdLevel::kAvx2)) {
    variants.push_back({"avx2", SimdLevel::kAvx2, IntersectCountAvx2,
                        IntersectIntoAvx2, ContainsSortedAvx2});
  }
  return variants;
}

std::vector<NodeId> Reference(const std::vector<NodeId>& a,
                              const std::vector<NodeId>& b) {
  std::vector<NodeId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Checks every variant (and the dispatched entry points) against the
/// std::set_intersection reference, in both argument orders.
void CheckPair(const std::vector<NodeId>& a, const std::vector<NodeId>& b) {
  const std::vector<NodeId> expected = Reference(a, b);
  for (const auto& [sa, sb] : {std::pair{&a, &b}, std::pair{&b, &a}}) {
    const size_t cap = std::min(sa->size(), sb->size()) + kIntersectSlack;
    std::vector<NodeId> out(cap, 0xDEADBEEF);
    for (const Variant& v : SupportedVariants()) {
      EXPECT_EQ(v.count(*sa, *sb), expected.size()) << v.name;
      const size_t n = v.into(*sa, *sb, out.data());
      ASSERT_EQ(n, expected.size()) << v.name;
      EXPECT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()))
          << v.name;
    }
    EXPECT_EQ(IntersectCount(*sa, *sb), expected.size());
    const size_t n = IntersectInto(*sa, *sb, out.data());
    ASSERT_EQ(n, expected.size());
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()));
  }
}

void CheckContains(const std::vector<NodeId>& sorted,
                   const std::vector<NodeId>& probes) {
  for (const NodeId v : probes) {
    const bool expected =
        std::binary_search(sorted.begin(), sorted.end(), v);
    for (const Variant& var : SupportedVariants()) {
      EXPECT_EQ(var.contains(sorted, v), expected)
          << var.name << " probing " << v << " in list of " << sorted.size();
    }
    EXPECT_EQ(ContainsSorted(sorted, v), expected);
  }
}

std::vector<NodeId> SortedUnique(std::vector<NodeId> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

std::vector<NodeId> RandomSorted(std::mt19937* rng, size_t size,
                                 NodeId universe) {
  std::uniform_int_distribution<NodeId> dist(0, universe);
  std::vector<NodeId> values(size);
  for (NodeId& v : values) v = dist(*rng);
  return SortedUnique(std::move(values));
}

TEST(Intersect, EmptyAndSingleton) {
  CheckPair({}, {});
  CheckPair({}, {1, 2, 3});
  CheckPair({5}, {5});
  CheckPair({5}, {6});
  CheckPair({5}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
}

TEST(Intersect, DisjointAndEqual) {
  std::vector<NodeId> evens, odds;
  for (NodeId i = 0; i < 100; ++i) {
    evens.push_back(2 * i);
    odds.push_back(2 * i + 1);
  }
  CheckPair(evens, odds);
  CheckPair(evens, evens);
  // Interleaved blocks: runs of matches separated by runs of misses, which
  // exercises every lane pattern of the block kernels.
  std::vector<NodeId> blocks;
  for (NodeId i = 0; i < 100; ++i) {
    if ((i / 5) % 2 == 0) blocks.push_back(2 * i);
  }
  CheckPair(evens, blocks);
}

TEST(Intersect, UnalignedTails) {
  // Every length mod 8 on both sides, so the partial final block and the
  // scalar tail of each kernel are all hit.
  std::mt19937 rng(7);
  for (size_t la = 0; la < 20; ++la) {
    for (size_t lb : {size_t{0}, size_t{1}, size_t{3}, size_t{7}, size_t{8},
                      size_t{9}, size_t{15}, size_t{16}, size_t{17}}) {
      CheckPair(RandomSorted(&rng, la, 40), RandomSorted(&rng, lb, 40));
    }
  }
}

TEST(Intersect, RandomDense) {
  std::mt19937 rng(42);
  for (int round = 0; round < 40; ++round) {
    const auto a = RandomSorted(&rng, 200, 500);
    const auto b = RandomSorted(&rng, 200, 500);
    CheckPair(a, b);
    CheckContains(a, b);
  }
}

TEST(Intersect, SkewedOneToThousand) {
  // 1:1000 size ratio triggers the galloping path of the scalar kernel and
  // the narrow-side handling of the SIMD kernels.
  std::mt19937 rng(1234);
  for (int round = 0; round < 10; ++round) {
    const auto big = RandomSorted(&rng, 4000, 1u << 20);
    auto small = RandomSorted(&rng, 4, 1u << 20);
    // Make sure some probes hit.
    if (!big.empty()) {
      small.push_back(big[big.size() / 2]);
      small.push_back(big.back());
      small = SortedUnique(std::move(small));
    }
    CheckPair(big, small);
    CheckContains(big, small);
  }
}

TEST(Intersect, AdversarialGallopPatterns) {
  // Values chosen so each gallop probe lands just before / just after the
  // doubling boundaries: multiples of 2^k and their neighbors.
  std::vector<NodeId> big;
  for (NodeId i = 0; i < 1 << 14; ++i) big.push_back(3 * i);
  std::vector<NodeId> probes;
  for (NodeId p = 1; p < 1 << 14; p *= 2) {
    for (int delta = -2; delta <= 2; ++delta) {
      const int64_t v = 3 * static_cast<int64_t>(p) + delta;
      if (v >= 0) probes.push_back(static_cast<NodeId>(v));
    }
  }
  probes = SortedUnique(std::move(probes));
  CheckPair(big, probes);
  CheckContains(big, probes);
  // Clustered hits at the very end of the long list: galloping must not
  // overshoot past the boundary.
  std::vector<NodeId> tail(big.end() - 9, big.end());
  CheckPair(big, tail);
}

/// The elements of `ranks` in [lo, hi), by a linear filter.
std::vector<NodeId> FilterWindow(const std::vector<NodeId>& ranks, NodeId lo,
                                 NodeId hi) {
  std::vector<NodeId> out;
  for (const NodeId r : ranks) {
    if (r >= lo && r < hi) out.push_back(r);
  }
  return out;
}

TEST(RankWindow, MatchesALinearFilter) {
  // Every cut of short lists, including empty and inverted ranges and
  // bounds outside the list, so each early exit and both searches run.
  std::mt19937 rng(23);
  for (size_t size = 0; size < 40; ++size) {
    const std::vector<NodeId> ranks = RandomSorted(&rng, size, 60);
    for (NodeId lo = 0; lo <= 62; lo += 3) {
      for (NodeId hi = 0; hi <= 62; hi += 2) {
        const auto window = RankWindow(ranks, lo, hi);
        const std::vector<NodeId> expected = FilterWindow(ranks, lo, hi);
        ASSERT_EQ(std::vector<NodeId>(window.begin(), window.end()),
                  expected)
            << "size=" << ranks.size() << " [" << lo << ", " << hi << ")";
        if (!window.empty()) {
          // A subspan of the row itself, not a copy.
          EXPECT_GE(window.data(), ranks.data());
          EXPECT_LE(window.data() + window.size(),
                    ranks.data() + ranks.size());
        }
      }
    }
  }
}

TEST(RankWindow, IntersectingTwoWindowsMatchesTheFilteredReference) {
  // How rank-space reducers close a cycle: cut two bound nodes' rows to
  // one window and intersect them into a buffer sized by the kIntersectSlack
  // contract. Every kernel variant must return the filtered intersection.
  std::mt19937 rng(29);
  std::uniform_int_distribution<NodeId> bound(0, 2100);
  for (int trial = 0; trial < 300; ++trial) {
    const std::vector<NodeId> a =
        RandomSorted(&rng, 1 + rng() % 400, 2000);
    const std::vector<NodeId> b =
        RandomSorted(&rng, 1 + rng() % 400, 2000);
    NodeId lo = bound(rng);
    NodeId hi = bound(rng);
    if (lo > hi) std::swap(lo, hi);
    const auto wa = RankWindow(a, lo, hi);
    const auto wb = RankWindow(b, lo, hi);
    const std::vector<NodeId> expected =
        Reference(FilterWindow(a, lo, hi), FilterWindow(b, lo, hi));
    std::vector<NodeId> out(std::min(wa.size(), wb.size()) + kIntersectSlack);
    for (const Variant& v : SupportedVariants()) {
      const size_t n = v.into(wa, wb, out.data());
      ASSERT_EQ(n, expected.size()) << v.name;
      EXPECT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()))
          << v.name;
    }
    const size_t n = IntersectInto(wa, wb, out.data());
    ASSERT_EQ(n, expected.size());
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()));
  }
}

TEST(Intersect, DispatcherReportsSupportedLevel) {
  const SimdLevel level = ActiveSimdLevel();
  EXPECT_TRUE(SimdLevelSupported(level));
  EXPECT_TRUE(SimdLevelSupported(SimdLevel::kScalar));
  EXPECT_NE(SimdLevelName(level), nullptr);
}

TEST(Arena, BumpAllocationAndReset) {
  Arena arena(256);
  uint32_t* a = arena.AllocateArray<uint32_t>(10);
  uint32_t* b = arena.AllocateArray<uint32_t>(10);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  for (int i = 0; i < 10; ++i) a[i] = 100 + i;
  for (int i = 0; i < 10; ++i) b[i] = 200 + i;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a[i], 100u + i);
    EXPECT_EQ(b[i], 200u + i);
  }
  // Growth past the first chunk.
  uint32_t* big = arena.AllocateArray<uint32_t>(10000);
  big[9999] = 7;
  EXPECT_EQ(big[9999], 7u);
  const size_t grown = arena.capacity();
  // Reset rewinds but keeps the chunks: capacity is unchanged and the first
  // allocations land on the same addresses.
  arena.Reset();
  EXPECT_EQ(arena.capacity(), grown);
  uint32_t* a2 = arena.AllocateArray<uint32_t>(10);
  EXPECT_EQ(a2, a);
}

TEST(Arena, AlignmentHonored) {
  Arena arena;
  (void)arena.Allocate(1, 1);
  void* p8 = arena.Allocate(8, 8);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p8) % 8, 0u);
  (void)arena.Allocate(3, 1);
  void* p64 = arena.Allocate(64, 64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p64) % 64, 0u);
}

}  // namespace
}  // namespace smr
