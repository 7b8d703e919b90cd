#include "util/combinatorics.h"

#include <algorithm>
#include <numeric>

namespace smr {

uint64_t Binomial(int64_t n, int64_t k) {
  if (k < 0 || k > n || n < 0) return 0;
  k = std::min(k, n - k);
  uint64_t result = 1;
  for (int64_t i = 1; i <= k; ++i) {
    result = result * static_cast<uint64_t>(n - k + i) /
             static_cast<uint64_t>(i);
  }
  return result;
}

bool BinomialFitsUint64(int64_t n, int64_t k) {
  return BinomialAtMost(n, k, UINT64_MAX);
}

bool BinomialAtMost(int64_t n, int64_t k, uint64_t bound) {
  if (k < 0 || k > n || n < 0) return true;  // Binomial returns 0.
  k = std::min(k, n - k);
  unsigned __int128 result = 1;
  for (int64_t i = 1; i <= k; ++i) {
    // Exact at every step: the running value is C(n-k+i, i). It only grows,
    // so stopping once past the bound keeps the product below 2^127.
    result = result * static_cast<unsigned __int128>(n - k + i) /
             static_cast<unsigned __int128>(i);
    if (result > bound) return false;
  }
  return true;
}

uint64_t Factorial(int n) {
  uint64_t result = 1;
  for (int i = 2; i <= n; ++i) result *= static_cast<uint64_t>(i);
  return result;
}

std::vector<std::vector<int>> AllPermutations(int p) {
  std::vector<int> perm(p);
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<std::vector<int>> result;
  do {
    result.push_back(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return result;
}

std::vector<int> Compose(const std::vector<int>& a, const std::vector<int>& b) {
  std::vector<int> result(a.size());
  for (size_t i = 0; i < a.size(); ++i) result[i] = a[b[i]];
  return result;
}

std::vector<int> Inverse(const std::vector<int>& a) {
  std::vector<int> result(a.size());
  for (size_t i = 0; i < a.size(); ++i) result[a[i]] = static_cast<int>(i);
  return result;
}

namespace {

void NondecreasingRec(int base, int length, int low, std::vector<int>* cur,
                      std::vector<std::vector<int>>* out) {
  if (static_cast<int>(cur->size()) == length) {
    out->push_back(*cur);
    return;
  }
  for (int v = low; v < base; ++v) {
    cur->push_back(v);
    NondecreasingRec(base, length, v, cur, out);
    cur->pop_back();
  }
}

}  // namespace

std::vector<std::vector<int>> NondecreasingSequences(int base, int length) {
  std::vector<std::vector<int>> out;
  std::vector<int> cur;
  NondecreasingRec(base, length, 0, &cur, &out);
  return out;
}

BucketKeys::BucketKeys(int buckets, int p)
    : p_(p), stride_(static_cast<size_t>(buckets) + 1) {
  for (const auto& padding : NondecreasingSequences(buckets, p - 2)) {
    paddings_.insert(paddings_.end(), padding.begin(), padding.end());
    ++per_edge_;
  }
  prefix_.assign(static_cast<size_t>(p) * stride_, 0);
  for (int pos = 0; pos < p; ++pos) {
    const int rem = p - pos - 1;
    uint64_t* row = prefix_.data() + static_cast<size_t>(pos) * stride_;
    for (int v = 0; v < buckets; ++v) {
      row[v + 1] = row[v] + Binomial(buckets - v + rem - 1, rem);
    }
  }
}

uint64_t RankNondecreasing(const std::vector<int>& seq, int base) {
  // Lexicographic rank: count sequences that precede `seq`. At position i,
  // for each value v in [prev, seq[i]), the remaining length-(i+1) positions
  // can hold any nondecreasing sequence over [v, base), of which there are
  // C((base - v) + rem - 1, rem).
  uint64_t rank = 0;
  int prev = 0;
  const int length = static_cast<int>(seq.size());
  for (int i = 0; i < length; ++i) {
    const int rem = length - i - 1;
    for (int v = prev; v < seq[i]; ++v) {
      rank += Binomial(base - v + rem - 1, rem);
    }
    prev = seq[i];
  }
  return rank;
}

std::vector<int> UnrankNondecreasing(uint64_t rank, int base, int length) {
  // Greedy inverse of RankNondecreasing: at each position take the smallest
  // value whose block of completions contains `rank`.
  std::vector<int> seq(length);
  int prev = 0;
  for (int i = 0; i < length; ++i) {
    const int rem = length - i - 1;
    int v = prev;
    while (true) {
      const uint64_t block = Binomial(base - v + rem - 1, rem);
      if (rank < block) break;
      rank -= block;
      ++v;
    }
    seq[i] = v;
    prev = v;
  }
  return seq;
}

uint64_t RankSubset(const std::vector<int>& seq, int base) {
  uint64_t rank = 0;
  int prev = -1;
  const int length = static_cast<int>(seq.size());
  for (int i = 0; i < length; ++i) {
    const int rem = length - i - 1;
    // Subsets preceding `seq` pick some v in (prev, seq[i]) here and any
    // rem-subset of (v, base) after it.
    for (int v = prev + 1; v < seq[i]; ++v) {
      rank += Binomial(base - 1 - v, rem);
    }
    prev = seq[i];
  }
  return rank;
}

std::vector<int> UnrankSubset(uint64_t rank, int base, int length) {
  std::vector<int> seq(length);
  int prev = -1;
  for (int i = 0; i < length; ++i) {
    const int rem = length - i - 1;
    int v = prev + 1;
    while (true) {
      const uint64_t block = Binomial(base - 1 - v, rem);
      if (rank < block) break;
      rank -= block;
      ++v;
    }
    seq[i] = v;
    prev = v;
  }
  return seq;
}

namespace {

/// C(n, 2) and C(n, 3) with the convention C(n, k) = 0 for n < k.
uint64_t Choose2(int64_t n) {
  return n < 2 ? 0 : static_cast<uint64_t>(n) * (n - 1) / 2;
}

uint64_t Choose3(int64_t n) {
  return n < 3 ? 0 : static_cast<uint64_t>(n) * (n - 1) * (n - 2) / 6;
}

}  // namespace

uint64_t RankNondecreasing3(int a, int b, int c, int base) {
  // Hockey-stick sums of the generic blocks: position 0 contributes
  // sum_{v<a} C(base-v+1, 2) = C(base+2, 3) - C(base-a+2, 3), position 1
  // sum_{v in [a,b)} (base-v) = C(base-a+1, 2) - C(base-b+1, 2), and
  // position 2 counts c - b.
  const int64_t n = base;
  return (Choose3(n + 2) - Choose3(n - a + 2)) +
         (Choose2(n - a + 1) - Choose2(n - b + 1)) +
         static_cast<uint64_t>(c - b);
}

uint64_t RankSubset3(int a, int b, int c, int base) {
  const int64_t n = base;
  return (Choose3(n) - Choose3(n - a)) +
         (Choose2(n - 1 - a) - Choose2(n - b)) +
         static_cast<uint64_t>(c - b - 1);
}

namespace {

void CompositionsRec(int total, int parts, std::vector<int>* cur,
                     std::vector<std::vector<int>>* out) {
  if (parts == 1) {
    if (total >= 1) {
      cur->push_back(total);
      out->push_back(*cur);
      cur->pop_back();
    }
    return;
  }
  for (int first = 1; first <= total - (parts - 1); ++first) {
    cur->push_back(first);
    CompositionsRec(total - first, parts - 1, cur, out);
    cur->pop_back();
  }
}

}  // namespace

std::vector<std::vector<int>> Compositions(int total, int parts) {
  std::vector<std::vector<int>> out;
  if (parts < 1 || total < parts) return out;
  std::vector<int> cur;
  CompositionsRec(total, parts, &cur, &out);
  return out;
}

}  // namespace smr
