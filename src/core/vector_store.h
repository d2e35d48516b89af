// Append-only storage for timestamped vectors.
//
// Vectors must arrive in non-decreasing timestamp order (the paper's
// time-accumulating setting), so the store doubles as the sorted array that
// BSBF's binary search requires and as the backing slice store for MBI
// blocks: every block references a contiguous [begin, end) id range and never
// copies vector data.
//
// Concurrency contract (single writer, many readers):
//
//   Storage is a sequence of fixed-capacity arena chunks that are never
//   reallocated or moved, so a pointer returned by GetVector() stays valid
//   for the lifetime of the store. Chunks are not zero-filled: a chunk
//   commits memory only as rows fill its pages, and its unfilled capacity
//   is address space, not resident memory. The writer appends into the tail
//   chunk and then publishes the new size with a release store; readers
//   obtain the committed size via size() (acquire) and may touch any id
//   below it while the writer keeps appending. Append/AppendBatch serialize
//   on an internal writer mutex, and every writer-side field is
//   MBI_GUARDED_BY it, so the single-writer half of the contract is enforced
//   at compile time under Clang -Wthread-safety (and at run time for
//   accidental second writers).
//
//   An angular store also keeps each row's squared norm beside its
//   timestamp, written before the row is published, so an angular score
//   sums only one dot product per row.

#ifndef MBI_CORE_VECTOR_STORE_H_
#define MBI_CORE_VECTOR_STORE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/distance.h"
#include "core/time_window.h"
#include "core/types.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mbi {

/// A contiguous range of vector ids [begin, end).
struct IdRange {
  VectorId begin = 0;
  VectorId end = 0;

  int64_t size() const { return end - begin; }
  bool Empty() const { return end <= begin; }

  friend bool operator==(const IdRange& a, const IdRange& b) {
    return a.begin == b.begin && a.end == b.end;
  }
};

/// True iff every one of the `dim` components is finite (no NaN/Inf).
/// NaN components would poison every distance comparison they touch (NaN
/// compares false both ways), silently corrupting graph builds and heaps —
/// so all ingest and query entry points reject them up front.
bool IsFiniteVector(const float* v, size_t dim);

class VectorStore {
 public:
  /// Default arena capacity in vectors. Must be a power of two. Larger
  /// values give longer contiguous runs to SIMD-friendly scan loops; the
  /// unfilled capacity of a tiny store costs address space, not memory.
  static constexpr size_t kDefaultChunkCapacity = 8192;

  /// Creates an empty store for `dim`-dimensional vectors under `metric`.
  /// `chunk_capacity` is rounded up to a power of two.
  VectorStore(size_t dim, Metric metric,
              size_t chunk_capacity = kDefaultChunkCapacity);

  // Chunks are referenced by readers; the store is not copyable or movable.
  VectorStore(const VectorStore&) = delete;
  VectorStore& operator=(const VectorStore&) = delete;

  /// Appends one timestamped vector. Fails with FailedPrecondition if `t`
  /// precedes the last appended timestamp and with InvalidArgument if any
  /// component is NaN/Inf or `t` is INT64_MAX (no half-open window can
  /// contain it). Writer-only.
  Status Append(const float* vector, Timestamp t) MBI_EXCLUDES(writer_mu_);

  /// Appends `count` vectors stored row-major with per-row timestamps.
  /// On an ordering or non-finite-component error the already-valid prefix
  /// stays appended; `rows_applied` (when non-null) receives the number of
  /// rows durably committed, so callers always know exactly how far the
  /// batch got.
  Status AppendBatch(const float* vectors, const Timestamp* timestamps,
                     size_t count, size_t* rows_applied = nullptr)
      MBI_EXCLUDES(writer_mu_);

  /// Number of committed vectors (acquire load; safe from any thread).
  size_t size() const { return committed_.load(std::memory_order_acquire); }
  bool empty() const { return size() == 0; }
  size_t dim() const { return dist_.dim(); }
  Metric metric() const { return dist_.metric(); }
  const DistanceFunction& distance() const { return dist_; }

  /// Pointer to vector `id`'s floats. Never dangles: chunks are stable.
  const float* GetVector(VectorId id) const {
    const size_t i = static_cast<size_t>(id);
    const Chunk& c = table_.load(std::memory_order_acquire)[i >> chunk_shift_];
    return c.data + (i & chunk_mask_) * dist_.dim();
  }

  Timestamp GetTimestamp(VectorId id) const {
    const size_t i = static_cast<size_t>(id);
    const Chunk& c = table_.load(std::memory_order_acquire)[i >> chunk_shift_];
    return c.timestamps[i & chunk_mask_];
  }

  /// True iff the store keeps each row's squared norm (angular stores).
  bool has_norms() const { return dist_.metric() == Metric::kAngular; }

  /// SquaredNorm(GetVector(id)), stored when the row was appended.
  /// Requires has_norms().
  float GetSquaredNorm(VectorId id) const {
    const size_t i = static_cast<size_t>(id);
    const Chunk& c = table_.load(std::memory_order_acquire)[i >> chunk_shift_];
    return c.norms[i & chunk_mask_];
  }

  /// A maximal contiguous run of storage starting at one id: `count` vectors
  /// at `data` (row-major) with parallel `timestamps` and, in a store with
  /// norms, parallel squared `norms` (else null). Runs end at chunk
  /// boundaries; loop until `begin + count == end` to cover a whole range.
  struct ContiguousRun {
    const float* data;
    const Timestamp* timestamps;
    const float* norms;
    size_t count;
  };

  /// Longest contiguous run starting at `begin`, clipped to `end`.
  /// Requires begin < end <= size().
  ContiguousRun Run(VectorId begin, VectorId end) const {
    const size_t i = static_cast<size_t>(begin);
    const size_t local = i & chunk_mask_;
    const size_t count = std::min(chunk_capacity_ - local,
                                  static_cast<size_t>(end - begin));
    const Chunk& c = table_.load(std::memory_order_acquire)[i >> chunk_shift_];
    return {c.data + local * dist_.dim(), c.timestamps + local,
            c.norms != nullptr ? c.norms + local : nullptr, count};
  }

  /// Ids of all vectors whose timestamp lies in the half-open `window`
  /// (binary search; O(log n)). The returned range is contiguous because the
  /// store is timestamp-sorted.
  IdRange FindRange(const TimeWindow& window) const {
    return FindRangeInPrefix(window, size());
  }

  /// FindRange restricted to the first `n` vectors — the committed prefix a
  /// concurrent reader pinned at the start of its query (n <= size()).
  IdRange FindRangeInPrefix(const TimeWindow& window, size_t n) const;

  /// Time window spanned by ids [range.begin, range.end): starts at the first
  /// vector's timestamp; the exclusive upper bound is the timestamp of the
  /// first vector *after* the range, or last+1 when the range touches the end
  /// of the store (the paper's "exclusive upper timestamp" convention).
  TimeWindow RangeWindow(const IdRange& range) const;

  /// Timestamp of the first / last stored vector. Store must be non-empty.
  Timestamp FirstTimestamp() const { return GetTimestamp(0); }
  Timestamp LastTimestamp() const {
    return GetTimestamp(static_cast<VectorId>(size()) - 1);
  }

  /// Bytes one row occupies: its floats, its timestamp and, in a store
  /// with norms, its squared norm.
  size_t BytesPerRow() const {
    return dist_.dim() * sizeof(float) + sizeof(Timestamp) +
           (has_norms() ? sizeof(float) : 0);
  }

  /// Bytes used by committed rows (BytesPerRow() each). Allocation is
  /// rounded up to whole chunks, but a chunk's pages become resident only
  /// as rows fill them, so this is also what the rows hold in memory, to
  /// within one page per chunk array.
  size_t MemoryBytes() const { return size() * BytesPerRow(); }

 private:
  struct Chunk {
    float* data = nullptr;          // chunk_capacity_ * dim floats
    Timestamp* timestamps = nullptr;  // chunk_capacity_ entries
    float* norms = nullptr;         // chunk_capacity_ entries, or null
  };

  // Append body; the public entry points take writer_mu_ and delegate here.
  Status AppendLocked(const float* vector, Timestamp t)
      MBI_REQUIRES(writer_mu_);

  // Ensures the chunk holding slot `index` exists, growing the chunk table
  // if needed. Writer-only.
  void EnsureChunkFor(size_t index) MBI_REQUIRES(writer_mu_);

  DistanceFunction dist_;
  size_t chunk_capacity_;  // power of two
  size_t chunk_shift_;
  size_t chunk_mask_;

  // Serializes appends and guards all writer-side bookkeeping below.
  Mutex writer_mu_;

  // Chunk pointer table. The active table is published through table_;
  // superseded tables are retired (kept alive) because a reader may still
  // hold them — every chunk pointer they contain stays valid.
  std::atomic<Chunk*> table_{nullptr};
  size_t table_capacity_ MBI_GUARDED_BY(writer_mu_) = 0;
  std::vector<std::unique_ptr<Chunk[]>> tables_
      MBI_GUARDED_BY(writer_mu_);  // [0..n-2] retired, back() active

  // Chunk ownership (writer-only bookkeeping).
  std::vector<std::unique_ptr<float[]>> data_chunks_
      MBI_GUARDED_BY(writer_mu_);
  std::vector<std::unique_ptr<Timestamp[]>> ts_chunks_
      MBI_GUARDED_BY(writer_mu_);
  std::vector<std::unique_ptr<float[]>> norm_chunks_
      MBI_GUARDED_BY(writer_mu_);  // empty unless has_norms()

  // Writer-side append cursor and the reader-visible committed size
  // (release-published by the writer, acquire-loaded by readers — the one
  // field both sides touch, via std::atomic rather than the mutex).
  size_t write_size_ MBI_GUARDED_BY(writer_mu_) = 0;
  Timestamp last_timestamp_ MBI_GUARDED_BY(writer_mu_) = 0;
  std::atomic<size_t> committed_{0};
};

/// A read-only view of `n` row-major vectors addressed by local index —
/// either a plain contiguous buffer or a slice of a (chunked) VectorStore
/// starting at a base id. Lets graph builders and searchers run over store
/// slices without assuming the slice is contiguous in memory.
class VectorSlice {
 public:
  VectorSlice() = default;

  /// Contiguous rows: row(i) = data + i * dim.
  VectorSlice(const float* data, size_t dim) : data_(data), dim_(dim) {}

  /// Store-backed rows: row(i) = store.GetVector(base + i).
  VectorSlice(const VectorStore& store, VectorId base)
      : store_(&store), base_(base) {}

  const float* row(size_t i) const {
    return store_ != nullptr
               ? store_->GetVector(base_ + static_cast<VectorId>(i))
               : data_ + i * dim_;
  }

 private:
  const VectorStore* store_ = nullptr;
  VectorId base_ = 0;
  const float* data_ = nullptr;
  size_t dim_ = 0;
};

/// Scores one query against a store's rows, bit for bit as
/// store.distance() does: score(id) == store.distance()(query,
/// store.GetVector(id)). Built once per search. In a store with norms it
/// sums the query's squared norm once and reads each row's stored one, so
/// an angular score sums one dot product instead of three sums. Algorithm 2
/// and ExactScan score through it and never branch on the metric.
class RowScorer {
 public:
  /// The most rows one Many call scores.
  static constexpr size_t kMaxBatch = 64;

  RowScorer(const VectorStore& store, const float* query);

  /// Distance from the query to row `id` (id < store.size()).
  float operator()(VectorId id) const {
    const float* row = store_.GetVector(id);
    if (has_norms_) {
      return AngularDistanceFromNorms(query_, row, dist_.dim(), query_norm_,
                                      store_.GetSquaredNorm(id));
    }
    return dist_(query_, row);
  }

  /// out[i] = (*this)(begin + i) for every i < count. The rows must lie in
  /// one contiguous run (count <= store.Run(begin, end).count), and count
  /// <= kMaxBatch.
  void Many(VectorId begin, size_t count, float* out) const;

 private:
  const VectorStore& store_;
  const DistanceFunction dist_;
  const float* query_;
  const bool has_norms_;
  const float query_norm_;  // SquaredNorm(query_) when has_norms_, else 0
};

}  // namespace mbi

#endif  // MBI_CORE_VECTOR_STORE_H_
