#ifndef SMR_UTIL_COMBINATORICS_H_
#define SMR_UTIL_COMBINATORICS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace smr {

/// Binomial coefficient C(n, k) as a 64-bit integer. Overflow-safe for the
/// ranges used in this project (n up to ~60). Returns 0 when k < 0 or k > n.
uint64_t Binomial(int64_t n, int64_t k);

/// True iff C(n, k) is representable in a uint64_t. Callers that derive a
/// reducer-id space from a binomial (bucket-oriented processing uses
/// C(b+p-1, p), generalized Partition C(b, p)) must check this before
/// trusting Binomial's value: the plain function wraps silently.
bool BinomialFitsUint64(int64_t n, int64_t k);

/// True iff C(n, k) <= bound, computed without overflow for any n < 2^63.
bool BinomialAtMost(int64_t n, int64_t k, uint64_t bound);

/// n! for small n (n <= 20).
uint64_t Factorial(int n);

/// All permutations of {0, 1, ..., p-1} in lexicographic order.
std::vector<std::vector<int>> AllPermutations(int p);

/// Composes permutations: result[i] = a[b[i]].
std::vector<int> Compose(const std::vector<int>& a, const std::vector<int>& b);

/// Inverse permutation: result[a[i]] = i.
std::vector<int> Inverse(const std::vector<int>& a);

/// All sequences of `length` integers drawn from [0, base) that are
/// nondecreasing. There are C(base + length - 1, length) of them
/// (Theorem 4.2 of the paper counts reducers this way).
std::vector<std::vector<int>> NondecreasingSequences(int base, int length);

/// Ranks a nondecreasing sequence among all nondecreasing sequences over
/// [0, base) of the same length, in lexicographic order. This is the bucket
/// list -> reducer id mapping used by bucket-oriented processing; it is a
/// bijection onto [0, C(base+length-1, length)).
uint64_t RankNondecreasing(const std::vector<int>& seq, int base);

/// Inverse of RankNondecreasing: the nondecreasing sequence of `length`
/// values over [0, base) with lexicographic rank `rank`. Together the pair
/// forms the overflow-free reducer-key codec for bucket multisets: ranks are
/// dense in [0, C(base+length-1, length)), unlike base-b positional packing
/// which wraps a uint64_t as soon as base^length > 2^64 (e.g. b=64, p=11)
/// and silently fuses distinct reducers.
/// Precondition: rank < C(base+length-1, length) — the greedy digit search
/// does not terminate for out-of-range ranks.
std::vector<int> UnrankNondecreasing(uint64_t rank, int base, int length);

/// The reducer keys a bucket-oriented mapper (Section 4.5) emits for one
/// edge. With b buckets and p pattern nodes, an edge whose endpoints lie in
/// buckets i <= j goes to one reducer per padding, a nondecreasing
/// sequence of p-2 more buckets: the key is the RankNondecreasing rank of
/// the padding with i and j merged in. The paddings are generated once per
/// job, and each key is ranked while i and j are merged into its padding,
/// from a prefix table of p x (b+1) partial rank sums, so a key costs p
/// table reads and allocates nothing.
class BucketKeys {
 public:
  /// Requires buckets >= 1 and p >= 2.
  BucketKeys(int buckets, int p);

  /// C(b+p-3, p-2): the keys per edge, the paper's replication rate.
  size_t per_edge() const { return per_edge_; }

  /// Calls fn(key) once per padding, in NondecreasingSequences order.
  /// Requires 0 <= i <= j < b.
  template <typename Fn>
  void ForEach(int i, int j, Fn&& fn) const {
    const int pad = p_ - 2;
    const int pair[2] = {i, j};
    const int* padding = paddings_.data();
    for (size_t s = 0; s < per_edge_; ++s, padding += pad) {
      uint64_t key = 0;
      int prev = 0;
      int k = 0;
      int m = 0;
      const uint64_t* row = prefix_.data();
      for (int pos = 0; pos < p_; ++pos, row += stride_) {
        const int v = m < 2 && (k == pad || pair[m] <= padding[k])
                          ? pair[m++]
                          : padding[k++];
        key += row[v] - row[prev];
        prev = v;
      }
      fn(key);
    }
  }

 private:
  int p_;
  size_t stride_;      // b + 1
  size_t per_edge_ = 0;
  // The paddings, flattened: padding s is entries [s(p-2), (s+1)(p-2)).
  std::vector<int> paddings_;
  // Row pos, entry v: the sum over u < v of C(b-u+rem-1, rem), rem =
  // p-pos-1. A position adds row[v] - row[prev] to the rank, which is
  // what RankNondecreasing adds there.
  std::vector<uint64_t> prefix_;
};

/// Lexicographic rank of a strictly increasing sequence (a subset written
/// in ascending order) among all k-subsets of [0, base). Bijection onto
/// [0, C(base, k)); the subset analogue of RankNondecreasing.
uint64_t RankSubset(const std::vector<int>& seq, int base);

/// Inverse of RankSubset. Precondition: rank < C(base, length).
std::vector<int> UnrankSubset(uint64_t rank, int base, int length);

/// Closed forms of RankNondecreasing / RankSubset for length-3 sequences —
/// the per-emission hot path of the triangle-algorithm mappers, where the
/// generic O(base) ranking loop (and its vector argument) would multiply
/// the map phase's arithmetic by b. Requires a <= b <= c (strictly
/// increasing for the subset form), all in [0, base).
uint64_t RankNondecreasing3(int a, int b, int c, int base);
uint64_t RankSubset3(int a, int b, int c, int base);

/// All ways to write `total` as an ordered sum of `parts` positive integers
/// (compositions). Used by the cycle run-sequence enumeration (Section 5).
std::vector<std::vector<int>> Compositions(int total, int parts);

}  // namespace smr

#endif  // SMR_UTIL_COMBINATORICS_H_
