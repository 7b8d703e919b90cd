#ifndef SMR_MAPREDUCE_SPILL_H_
#define SMR_MAPREDUCE_SPILL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/codec.h"
#include "mapreduce/group_by_key.h"

namespace smr {

/// Paged, spillable key-value block store: the out-of-core backing for the
/// engine's shuffle when an ExecutionPolicy declares a byte budget
/// (`shuffle_budget_bytes`). The design follows the Mimir page-pool shape:
/// emission buffers are charged against one per-job PagePool, and when the
/// pool exceeds the budget a map worker spills its own buffers — each
/// bucket grouped by engine_internal::GroupByKey (per-key counting scatter
/// on dense keys, binned scatter and in-bin sorts on sparse ones) and
/// appended to the worker's
/// temp file in partition order as one *run* — then keeps emitting into
/// the emptied buffers. A partition no channel spilled into is grouped
/// whole, like an unbudgeted one; a spilled partition is recovered as a
/// stable k-way merge of its runs plus its resident tails, each grouped at
/// drain, in worker order. Every run is a contiguous emission-order
/// segment grouped stably and the merge breaks key ties by segment order,
/// so the merged stream is *exactly* the stable sort of the worker-order
/// concatenation: instances, output order and semantic metrics match the
/// unbounded path byte for byte (tests/spill_shuffle_fuzz_test.cc).
///
/// I/O failures (short writes, ENOSPC, failed re-reads) surface as
/// std::runtime_error naming the spill file; they are never absorbed into
/// wrong results. Temp files are removed on success and on throw alike:
/// the default backend unlinks each file at creation, so the kernel
/// reclaims it when the last descriptor closes (even on SIGKILL), and the
/// descriptor closes with the owning SpillChannel.

/// One spill file: append-only writer plus positioned reader. Thread
/// safety: Append is called only by the owning map worker; ReadAt may be
/// called concurrently from several reduce workers (the default backend
/// uses pread, which takes no file position).
class SpillFile {
 public:
  virtual ~SpillFile() = default;

  /// Appends exactly `bytes` bytes; throws std::runtime_error (naming
  /// path()) on any failure, including short writes and ENOSPC.
  virtual void Append(const void* data, size_t bytes) = 0;

  /// Reads exactly `bytes` bytes from `offset`; throws std::runtime_error
  /// (naming path()) on failure or short read.
  virtual void ReadAt(uint64_t offset, void* out, size_t bytes) = 0;

  virtual const std::string& path() const = 0;
};

/// Creates spill files. Pluggable so tests can inject deterministic
/// faults and audit the open/close ledger; the default backend makes
/// unlinked temp files under $TMPDIR.
class SpillBackend {
 public:
  virtual ~SpillBackend() = default;
  virtual std::unique_ptr<SpillFile> Create() = 0;
};

/// The process-default backend (real temp files).
SpillBackend& DefaultSpillBackend();

/// Per-job accounting of resident shuffle bytes against the declared
/// budget, shared by every map worker's SpillChannel. A channel counts its
/// own bytes and charges the pool in steps of at least kChargeBytes,
/// checking the budget only then; it spills when its charge leaves the
/// pool over budget and it holds at least kSpillFloorBytes. So the pool
/// overshoots only by channels under the floor, each channel holds under a
/// step the pool has not seen, and the end-of-map resident total stays
/// within budget + workers x (floor + step) + step + record <= budget +
/// workers x (page + record) + record, the invariant the differential
/// fuzz test asserts. Counters are relaxed atomics: they gate a heuristic
/// and feed ShuffleStats, not any ordering.
class PagePool {
 public:
  /// Fixed KV-block size: spill granularity and the read-back chunk.
  static constexpr size_t kPageBytes = 64 * 1024;
  /// A channel's charge step and spill floor (see above).
  static constexpr size_t kChargeBytes = kPageBytes / 4;
  static constexpr size_t kSpillFloorBytes = kPageBytes / 2;
  static_assert(kSpillFloorBytes + 2 * kChargeBytes <= kPageBytes,
                "charge step and spill floor overrun the resident bound");

  /// `budget_bytes` == 0 means unbounded (never spill); `backend` == null
  /// selects DefaultSpillBackend().
  PagePool(uint64_t budget_bytes, SpillBackend* backend)
      : budget_(budget_bytes),
        backend_(backend != nullptr ? backend : &DefaultSpillBackend()) {}

  bool bounded() const { return budget_ > 0; }

  /// Charges `bytes`; returns true if that leaves the pool over budget.
  bool Charge(size_t bytes) {
    const uint64_t before =
        resident_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    return bounded() && before + bytes > budget_;
  }

  void Release(size_t bytes) {
    resident_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// Bytes currently charged by live channels.
  uint64_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }

  std::unique_ptr<SpillFile> CreateFile() {
    spill_files_.fetch_add(1, std::memory_order_relaxed);
    return backend_->Create();
  }

  /// Accounts one spill of `bytes` serialized bytes (page count rounds up).
  void RecordSpill(uint64_t bytes) {
    bytes_spilled_.fetch_add(bytes, std::memory_order_relaxed);
    pages_spilled_.fetch_add((bytes + kPageBytes - 1) / kPageBytes,
                             std::memory_order_relaxed);
  }

  uint64_t pages_spilled() const {
    return pages_spilled_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_spilled() const {
    return bytes_spilled_.load(std::memory_order_relaxed);
  }
  uint64_t spill_files() const {
    return spill_files_.load(std::memory_order_relaxed);
  }

 private:
  uint64_t budget_;
  SpillBackend* backend_;
  std::atomic<uint64_t> resident_bytes_{0};
  std::atomic<uint64_t> pages_spilled_{0};
  std::atomic<uint64_t> bytes_spilled_{0};
  std::atomic<uint64_t> spill_files_{0};
};

/// Spill-store serialization is the shared codec layer's
/// (mapreduce/codec.h): spilled records are fixed-size [raw key][ValueCodec
/// value bytes] blocks, fixed because runs are read back at computed
/// offsets.
template <typename V>
using SpillTraits = ValueCodec<V>;

/// One sorted, streamable segment of a partition's pairs — a spilled run
/// (read back page-at-a-time through the owning worker's SpillFile) or the
/// resident tail — consumed through Head()/Pop() by the merge below.
template <typename Value>
class SpillSource {
  using Pair = std::pair<uint64_t, Value>;
  static constexpr size_t kRecordBytes =
      sizeof(uint64_t) + SpillTraits<Value>::kBytes;

 public:
  /// Resident tail (must stay alive and unmodified while merging).
  explicit SpillSource(const std::vector<Pair>* resident)
      : resident_(resident), count_(resident->size()) {}

  /// Spilled run of `count` records starting at byte `offset` of `file`.
  SpillSource(SpillFile* file, uint64_t offset, uint64_t count)
      : file_(file), offset_(offset), count_(count) {}

  bool Empty() const { return index_ >= count_; }

  const Pair& Head() {
    if (resident_ != nullptr) return (*resident_)[index_];
    if (buffer_pos_ >= buffer_.size()) Refill();
    return buffer_[buffer_pos_];
  }

  void Pop() {
    ++index_;
    if (resident_ == nullptr) ++buffer_pos_;
  }

 private:
  void Refill() {
    // One page worth of records per read (at least one record).
    constexpr size_t kChunkPairs =
        PagePool::kPageBytes / kRecordBytes > 0
            ? PagePool::kPageBytes / kRecordBytes
            : 1;
    const uint64_t remaining = count_ - index_;
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(remaining, kChunkPairs));
    bytes_.resize(n * kRecordBytes);
    file_->ReadAt(offset_ + index_ * kRecordBytes, bytes_.data(),
                  bytes_.size());
    buffer_.clear();
    buffer_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const unsigned char* record = bytes_.data() + i * kRecordBytes;
      uint64_t key = 0;
      std::memcpy(&key, record, sizeof(uint64_t));
      buffer_.emplace_back(key,
                           SpillTraits<Value>::Load(record + sizeof(uint64_t)));
    }
    buffer_pos_ = 0;
  }

  const std::vector<Pair>* resident_ = nullptr;
  SpillFile* file_ = nullptr;
  uint64_t offset_ = 0;
  uint64_t count_ = 0;
  uint64_t index_ = 0;
  std::vector<Pair> buffer_;
  size_t buffer_pos_ = 0;
  std::vector<unsigned char> bytes_;
};

/// Stable k-way merge over sorted segments. Ties on the key are broken by
/// segment index, and segments are registered in emission order (worker-
/// major, runs before the resident tail), so the merged stream equals the
/// stable sort of the in-memory concatenation — the equality the engine's
/// determinism guarantee rides on.
template <typename Value>
class SpillMerger {
 public:
  explicit SpillMerger(std::vector<SpillSource<Value>> sources)
      : sources_(std::move(sources)) {
    for (size_t i = 0; i < sources_.size(); ++i) {
      if (!sources_[i].Empty()) heap_.emplace(sources_[i].Head().first, i);
    }
  }

  /// Pops the next pair in grouped order; false when drained.
  bool Next(uint64_t* key, Value* value) {
    if (heap_.empty()) return false;
    const size_t i = heap_.top().second;
    heap_.pop();
    SpillSource<Value>& source = sources_[i];
    *key = source.Head().first;
    *value = source.Head().second;
    source.Pop();
    if (!source.Empty()) heap_.emplace(source.Head().first, i);
    return true;
  }

 private:
  using Entry = std::pair<uint64_t, size_t>;  // (head key, segment index)
  std::vector<SpillSource<Value>> sources_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
};

/// One map worker's emission buffers under a budget: one bucket per
/// destination partition, charged against the shared PagePool. The worker
/// emits into buckets() exactly as it would into the in-memory scatter
/// buffers; NotifyAppend() (called by the Emitter per append) counts the
/// bytes locally, charges the pool once per charge step, and at those
/// points spills this channel — all buckets, grouped by GroupByKey, in
/// partition order, to the worker's own temp file — when the pool is over
/// budget and the channel holds at least the spill floor (see PagePool).
/// Single-threaded per worker except for the pool's atomic counters.
template <typename Value>
class SpillChannel {
  using Pair = std::pair<uint64_t, Value>;

 public:
  static constexpr size_t kRecordBytes =
      sizeof(uint64_t) + SpillTraits<Value>::kBytes;
  static_assert(SpillTraits<Value>::kBytes < PagePool::kPageBytes,
                "shuffle value larger than a spill page");

  SpillChannel(PagePool* pool, unsigned partitions)
      : pool_(pool), buckets_(partitions), spilled_(partitions) {}

  ~SpillChannel() { pool_->Release(charged_bytes_); }

  SpillChannel(const SpillChannel&) = delete;
  SpillChannel& operator=(const SpillChannel&) = delete;

  std::vector<std::vector<Pair>>* buckets() { return &buckets_; }

  /// Accounts one appended pair; spills when over budget. Returns true if
  /// a spill ran (the caller's bucket-position state is then stale).
  bool NotifyAppend() {
    resident_bytes_ += kRecordBytes;
    const uint64_t uncharged = resident_bytes_ - charged_bytes_;
    if (uncharged < PagePool::kChargeBytes) return false;
    charged_bytes_ = resident_bytes_;
    if (pool_->Charge(uncharged) &&
        resident_bytes_ >= PagePool::kSpillFloorBytes) {
      Spill();
      return true;
    }
    return false;
  }

  /// Whether any run of partition `p` went to the spill file.
  bool Spilled(unsigned p) const { return !spilled_[p].runs.empty(); }

  /// Pairs this channel holds for partition `p`, spilled plus resident.
  uint64_t PairsInPartition(unsigned p) const {
    return spilled_[p].pairs + buckets_[p].size();
  }

  /// Appends partition `p`'s grouped segments in emission order: spilled
  /// runs oldest-first, then the resident tail, which is grouped here, in
  /// place (grouping a grouped tail again leaves it as it is). Call after
  /// the last emission.
  void AppendSources(unsigned p, std::vector<SpillSource<Value>>* out,
                     std::vector<uint32_t>* counts) {
    for (const Run& run : spilled_[p].runs) {
      out->emplace_back(file_.get(), run.offset, run.count);
    }
    if (buckets_[p].empty()) return;
    GroupBucket(&buckets_[p], counts);
    out->emplace_back(&buckets_[p]);
  }

 private:
  struct Run {
    uint64_t offset = 0;
    uint64_t count = 0;
  };
  struct PartitionRuns {
    std::vector<Run> runs;
    uint64_t pairs = 0;
  };

  /// Groups one bucket in place (ascending key, emission order within a
  /// key); the ungrouped storage is freed on return, so at most one
  /// bucket's copy is transient. `counts` is histogram scratch.
  static void GroupBucket(std::vector<Pair>* bucket,
                          std::vector<uint32_t>* counts) {
    std::vector<Pair>* one[] = {bucket};
    std::vector<Pair> grouped;
    engine_internal::GroupByKey<Value>(one, bucket->size(), &grouped, counts);
    bucket->swap(grouped);
  }

  /// Writes every non-empty bucket as one grouped run, in partition order,
  /// and releases the charged bytes back to the pool (they equal the
  /// spilled bytes: spills run only at charge points). Buckets give their
  /// heap storage back too — a cleared vector that keeps its capacity
  /// would defeat the budget.
  void Spill() {
    if (file_ == nullptr) file_ = pool_->CreateFile();
    if (scratch_.empty()) scratch_.resize(PagePool::kPageBytes);
    std::vector<uint32_t> counts;
    uint64_t spilled_bytes = 0;
    for (unsigned p = 0; p < buckets_.size(); ++p) {
      std::vector<Pair>& bucket = buckets_[p];
      if (bucket.empty()) continue;
      GroupBucket(&bucket, &counts);
      size_t used = 0;
      for (const Pair& pair : bucket) {
        if (used + kRecordBytes > scratch_.size()) {
          file_->Append(scratch_.data(), used);
          used = 0;
        }
        std::memcpy(scratch_.data() + used, &pair.first, sizeof(uint64_t));
        SpillTraits<Value>::Store(pair.second,
                                  scratch_.data() + used + sizeof(uint64_t));
        used += kRecordBytes;
      }
      if (used > 0) file_->Append(scratch_.data(), used);
      const uint64_t run_bytes = bucket.size() * kRecordBytes;
      spilled_[p].runs.push_back(Run{file_bytes_, bucket.size()});
      spilled_[p].pairs += bucket.size();
      file_bytes_ += run_bytes;
      spilled_bytes += run_bytes;
      std::vector<Pair>().swap(bucket);
    }
    pool_->Release(charged_bytes_);
    pool_->RecordSpill(spilled_bytes);
    resident_bytes_ = 0;
    charged_bytes_ = 0;
  }

  PagePool* pool_;
  std::vector<std::vector<Pair>> buckets_;
  std::vector<PartitionRuns> spilled_;
  std::unique_ptr<SpillFile> file_;
  uint64_t file_bytes_ = 0;
  uint64_t resident_bytes_ = 0;  // Appended pairs, spilled ones excluded.
  uint64_t charged_bytes_ = 0;   // The part of it charged to the pool.
  std::vector<unsigned char> scratch_;
};

}  // namespace smr

#endif  // SMR_MAPREDUCE_SPILL_H_
