#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "util/combinatorics.h"
#include "util/cost_model.h"
#include "util/hashing.h"
#include "util/parse.h"
#include "util/rng.h"

namespace smr {
namespace {

TEST(Binomial, SmallValues) {
  EXPECT_EQ(Binomial(0, 0), 1u);
  EXPECT_EQ(Binomial(5, 0), 1u);
  EXPECT_EQ(Binomial(5, 5), 1u);
  EXPECT_EQ(Binomial(5, 2), 10u);
  EXPECT_EQ(Binomial(10, 3), 120u);
  EXPECT_EQ(Binomial(52, 5), 2598960u);
}

TEST(Binomial, OutOfRange) {
  EXPECT_EQ(Binomial(3, 5), 0u);
  EXPECT_EQ(Binomial(3, -1), 0u);
  EXPECT_EQ(Binomial(-1, 0), 0u);
}

TEST(Binomial, PaperReducerCounts) {
  // Section 2.3: with b buckets, triangles need C(b+2, 3) reducers;
  // 2^20 = C(12+2, 3)-ish check from Fig. 2: b=10 gives C(12,3) = 220.
  EXPECT_EQ(Binomial(10 + 2, 3), 220u);
  // Fig. 2 uses 2^20 ~ C(12,3)*...: the paper's 2^20 reducers point is
  // b=10 for Section 2.3 where C(b+2,3) counts only useful reducers.
  EXPECT_EQ(Binomial(6 + 2, 3), 56u);
}

TEST(Factorial, Values) {
  EXPECT_EQ(Factorial(0), 1u);
  EXPECT_EQ(Factorial(1), 1u);
  EXPECT_EQ(Factorial(4), 24u);
  EXPECT_EQ(Factorial(8), 40320u);
}

TEST(AllPermutations, CountAndUniqueness) {
  const auto perms = AllPermutations(4);
  EXPECT_EQ(perms.size(), 24u);
  std::set<std::vector<int>> unique(perms.begin(), perms.end());
  EXPECT_EQ(unique.size(), 24u);
  EXPECT_TRUE(std::is_sorted(perms.begin(), perms.end()));
}

TEST(Permutations, ComposeAndInverse) {
  const std::vector<int> a = {2, 0, 1};
  const std::vector<int> b = {1, 2, 0};
  const auto ab = Compose(a, b);
  EXPECT_EQ(ab, (std::vector<int>{0, 1, 2}));
  const auto inv = Inverse(a);
  EXPECT_EQ(Compose(a, inv), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(Compose(inv, a), (std::vector<int>{0, 1, 2}));
}

TEST(NondecreasingSequences, CountMatchesBinomial) {
  for (int base = 1; base <= 6; ++base) {
    for (int length = 0; length <= 4; ++length) {
      const auto seqs = NondecreasingSequences(base, length);
      EXPECT_EQ(seqs.size(), Binomial(base + length - 1, length))
          << "base=" << base << " length=" << length;
    }
  }
}

TEST(NondecreasingSequences, AreSortedAndNondecreasing) {
  const auto seqs = NondecreasingSequences(4, 3);
  EXPECT_TRUE(std::is_sorted(seqs.begin(), seqs.end()));
  for (const auto& s : seqs) {
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  }
}

TEST(RankNondecreasing, IsBijectionOntoRange) {
  const int base = 5;
  const int length = 3;
  const auto seqs = NondecreasingSequences(base, length);
  std::set<uint64_t> ranks;
  for (const auto& s : seqs) {
    const uint64_t r = RankNondecreasing(s, base);
    EXPECT_LT(r, seqs.size());
    ranks.insert(r);
  }
  EXPECT_EQ(ranks.size(), seqs.size());
  // Lexicographic: rank of seqs[i] is i.
  for (size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(RankNondecreasing(seqs[i], base), i);
  }
}

TEST(BucketKeys, MatchRankNondecreasingOfEachPaddedMultiset) {
  // The mapper key helper must reproduce, bit for bit and in the same
  // order, the keys of the padding loop it replaced: each padding with i
  // and j appended, sorted, and ranked by RankNondecreasing.
  for (const int buckets : {1, 2, 3, 4, 5, 6, 7, 8, 13, 30}) {
    for (int p = 2; p <= (buckets > 8 ? 4 : 5); ++p) {
      const BucketKeys keys(buckets, p);
      const auto paddings = NondecreasingSequences(buckets, p - 2);
      ASSERT_EQ(keys.per_edge(), paddings.size());
      EXPECT_EQ(keys.per_edge(), Binomial(buckets + p - 3, p - 2));
      for (int i = 0; i < buckets; ++i) {
        for (int j = i; j < buckets; ++j) {
          std::vector<uint64_t> expected;
          for (const auto& padding : paddings) {
            std::vector<int> multiset = padding;
            multiset.push_back(i);
            multiset.push_back(j);
            std::sort(multiset.begin(), multiset.end());
            expected.push_back(RankNondecreasing(multiset, buckets));
          }
          std::vector<uint64_t> got;
          keys.ForEach(i, j, [&](uint64_t key) { got.push_back(key); });
          EXPECT_EQ(got, expected)
              << "b=" << buckets << " p=" << p << " i=" << i << " j=" << j;
        }
      }
    }
  }
}

TEST(Compositions, CountsArePascal) {
  // Number of compositions of n into k positive parts = C(n-1, k-1).
  for (int n = 1; n <= 8; ++n) {
    for (int k = 1; k <= n; ++k) {
      EXPECT_EQ(Compositions(n, k).size(), Binomial(n - 1, k - 1))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(Compositions, PartsArePositiveAndSum) {
  for (const auto& c : Compositions(7, 3)) {
    int sum = 0;
    for (int part : c) {
      EXPECT_GE(part, 1);
      sum += part;
    }
    EXPECT_EQ(sum, 7);
  }
}

TEST(Compositions, EmptyCases) {
  EXPECT_TRUE(Compositions(3, 4).empty());
  EXPECT_TRUE(Compositions(3, 0).empty());
}

TEST(SplitMix64, DeterministicAndDispersed) {
  EXPECT_EQ(SplitMix64(1), SplitMix64(1));
  EXPECT_NE(SplitMix64(1), SplitMix64(2));
  std::set<uint64_t> values;
  for (uint64_t i = 0; i < 1000; ++i) values.insert(SplitMix64(i));
  EXPECT_EQ(values.size(), 1000u);
}

TEST(BucketHasher, RangeAndBalance) {
  const int buckets = 8;
  BucketHasher hasher(buckets, 42);
  std::vector<int> histogram(buckets, 0);
  const int n = 80000;
  for (int u = 0; u < n; ++u) {
    const int bucket = hasher.Bucket(u);
    ASSERT_GE(bucket, 0);
    ASSERT_LT(bucket, buckets);
    ++histogram[bucket];
  }
  for (int count : histogram) {
    EXPECT_NEAR(count, n / buckets, n / buckets * 0.1);
  }
}

TEST(BucketHasher, SeedsGiveDifferentFunctions) {
  BucketHasher h1(16, 1);
  BucketHasher h2(16, 2);
  int differences = 0;
  for (int u = 0; u < 100; ++u) {
    if (h1.Bucket(u) != h2.Bucket(u)) ++differences;
  }
  EXPECT_GT(differences, 50);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Below(17), 17u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(CostCounter, AccumulatesAndResets) {
  CostCounter a;
  a.edges_scanned = 3;
  a.candidates = 5;
  CostCounter b;
  b.index_probes = 7;
  b.outputs = 2;
  a += b;
  EXPECT_EQ(a.Total(), 17u);
  a.Reset();
  EXPECT_EQ(a.Total(), 0u);
}

TEST(Parse, Int64AcceptsWholeStringIntegersOnly) {
  EXPECT_EQ(ParseInt64("0"), 0);
  EXPECT_EQ(ParseInt64("-42"), -42);
  EXPECT_EQ(ParseInt64("9223372036854775807"), INT64_MAX);
  for (const char* bad :
       {"", " 1", "1 ", "+1", "1.5", "abc", "12x", "0x10",
        "9223372036854775808", "99999999999999999999"}) {
    EXPECT_FALSE(ParseInt64(bad).has_value()) << bad;
  }
}

TEST(Parse, Uint64RejectsNegatives) {
  EXPECT_EQ(ParseUint64("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(ParseUint64("-1").has_value());
  EXPECT_FALSE(ParseUint64("18446744073709551616").has_value());
}

TEST(Parse, ByteSizeAcceptsBinarySuffixes) {
  EXPECT_EQ(ParseByteSize("0"), 0u);
  EXPECT_EQ(ParseByteSize("4096"), 4096u);
  EXPECT_EQ(ParseByteSize("64K"), uint64_t{64} << 10);
  EXPECT_EQ(ParseByteSize("64k"), uint64_t{64} << 10);
  EXPECT_EQ(ParseByteSize("512M"), uint64_t{512} << 20);
  EXPECT_EQ(ParseByteSize("2G"), uint64_t{2} << 30);
  EXPECT_EQ(ParseByteSize("3t"), uint64_t{3} << 40);
  // The largest value each suffix can scale without wrapping.
  EXPECT_EQ(ParseByteSize("18014398509481983K"),
            uint64_t{18014398509481983} << 10);
}

TEST(Parse, ByteSizeRejectsGarbageAndOverflow) {
  for (const char* bad :
       {"", "K", "64KB", "64 K", "1.5M", "-1K", "+1K", "0x10", "64Q",
        // 2^54 kibibytes = 2^64 bytes: one past the top.
        "18014398509481984K", "17179869184G", "16777216T",
        "99999999999999999999"}) {
    EXPECT_FALSE(ParseByteSize(bad).has_value()) << bad;
  }
}

TEST(Parse, DoubleIsStrictAndFinite) {
  EXPECT_DOUBLE_EQ(*ParseDouble("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("256"), 256.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("1e3"), 1000.0);
  for (const char* bad : {"", "nan", "inf", "-inf", "1.5x", " 1.5", "1e"}) {
    EXPECT_FALSE(ParseDouble(bad).has_value()) << bad;
  }
  // Overflowing literals are rejected rather than clamped.
  EXPECT_FALSE(ParseDouble("1e99999").has_value());
}

}  // namespace
}  // namespace smr
