#include "core/vector_store.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "util/check.h"

namespace mbi {
namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

size_t Log2(size_t pow2) {
  size_t s = 0;
  while ((size_t{1} << s) < pow2) ++s;
  return s;
}

}  // namespace

VectorStore::VectorStore(size_t dim, Metric metric, size_t chunk_capacity)
    : dist_(metric, dim),
      chunk_capacity_(RoundUpPow2(std::max<size_t>(chunk_capacity, 1))),
      chunk_shift_(Log2(chunk_capacity_)),
      chunk_mask_(chunk_capacity_ - 1) {}

void VectorStore::EnsureChunkFor(size_t index) {
  const size_t chunk = index >> chunk_shift_;
  if (chunk < data_chunks_.size()) return;
  MBI_CHECK(chunk == data_chunks_.size());  // appends are sequential

  // Default-initialized, not zero-filled: a page becomes resident only when
  // AppendLocked first writes a row into it, so the unfilled capacity costs
  // address space, not memory. Nothing reads a slot at or past size().
  data_chunks_.push_back(
      std::make_unique_for_overwrite<float[]>(chunk_capacity_ * dist_.dim()));
  ts_chunks_.push_back(
      std::make_unique_for_overwrite<Timestamp[]>(chunk_capacity_));
  if (has_norms()) {
    norm_chunks_.push_back(
        std::make_unique_for_overwrite<float[]>(chunk_capacity_));
  }
  const Chunk fresh{data_chunks_.back().get(), ts_chunks_.back().get(),
                    has_norms() ? norm_chunks_.back().get() : nullptr};

  if (chunk >= table_capacity_) {
    // Grow the chunk table. The previous table is retired, not freed:
    // readers that already loaded it keep dereferencing valid chunk
    // pointers (chunks themselves never move).
    const size_t new_capacity = std::max<size_t>(table_capacity_ * 2, 8);
    auto grown = std::make_unique<Chunk[]>(new_capacity);
    const Chunk* old = table_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < chunk; ++i) grown[i] = old[i];
    grown[chunk] = fresh;
    table_.store(grown.get(), std::memory_order_release);
    table_capacity_ = new_capacity;
    tables_.push_back(std::move(grown));
  } else {
    // In-place publication of one new slot. Readers never touch slot
    // `chunk` before committed_ covers it, and the committed_ release
    // store below orders this write before their acquire load.
    tables_.back()[chunk] = fresh;
  }
}

bool IsFiniteVector(const float* v, size_t dim) {
  for (size_t i = 0; i < dim; ++i) {
    if (!std::isfinite(v[i])) return false;
  }
  return true;
}

Status VectorStore::Append(const float* vector, Timestamp t) {
  MutexLock lock(writer_mu_);
  return AppendLocked(vector, t);
}

Status VectorStore::AppendLocked(const float* vector, Timestamp t) {
  // No half-open window contains the largest timestamp, and RangeWindow's
  // `last + 1` would overflow on it.
  if (t == std::numeric_limits<Timestamp>::max()) {
    return Status::InvalidArgument(
        "timestamp INT64_MAX is reserved as the open end of time windows");
  }
  if (write_size_ > 0 && t < last_timestamp_) {
    return Status::FailedPrecondition(
        "timestamps must be appended in non-decreasing order");
  }
  if (!IsFiniteVector(vector, dist_.dim())) {
    return Status::InvalidArgument(
        "vector has non-finite (NaN/Inf) components");
  }
  EnsureChunkFor(write_size_);
  const size_t local = write_size_ & chunk_mask_;
  std::memcpy(data_chunks_.back().get() + local * dist_.dim(), vector,
              dist_.dim() * sizeof(float));
  ts_chunks_.back()[local] = t;
  if (has_norms()) {
    norm_chunks_.back()[local] = SquaredNorm(vector, dist_.dim());
  }
  last_timestamp_ = t;
  ++write_size_;
  committed_.store(write_size_, std::memory_order_release);
  return Status::Ok();
}

Status VectorStore::AppendBatch(const float* vectors,
                                const Timestamp* timestamps, size_t count,
                                size_t* rows_applied) {
  MutexLock lock(writer_mu_);
  for (size_t i = 0; i < count; ++i) {
    Status s = AppendLocked(vectors + i * dist_.dim(), timestamps[i]);
    if (!s.ok()) {
      if (rows_applied != nullptr) *rows_applied = i;
      return Status(s.code(), s.message() + " (batch row " +
                                  std::to_string(i) + "; " +
                                  std::to_string(i) +
                                  " rows durably applied)");
    }
  }
  if (rows_applied != nullptr) *rows_applied = count;
  return Status::Ok();
}

IdRange VectorStore::FindRangeInPrefix(const TimeWindow& window,
                                       size_t n) const {
  if (window.Empty()) return IdRange{0, 0};
  // Manual lower bounds over GetTimestamp: timestamps are chunked, so there
  // is no contiguous array to hand to std::lower_bound.
  auto lower = [this](Timestamp t, size_t lo, size_t hi) {
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (GetTimestamp(static_cast<VectorId>(mid)) < t) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  const size_t begin = lower(window.start, 0, n);
  const size_t end = lower(window.end, begin, n);
  return IdRange{static_cast<VectorId>(begin), static_cast<VectorId>(end)};
}

RowScorer::RowScorer(const VectorStore& store, const float* query)
    : store_(store),
      dist_(store.distance()),
      query_(query),
      has_norms_(store.has_norms()),
      query_norm_(has_norms_ ? SquaredNorm(query, dist_.dim()) : 0.0f) {}

void RowScorer::Many(VectorId begin, size_t count, float* out) const {
  if (count == 0) return;
  MBI_CHECK(count <= kMaxBatch);
  const VectorStore::ContiguousRun run =
      store_.Run(begin, begin + static_cast<VectorId>(count));
  MBI_DCHECK(run.count == count);
  const float* rows[kMaxBatch];
  for (size_t i = 0; i < count; ++i) rows[i] = run.data + i * dist_.dim();
  if (has_norms_) {
    AngularDistanceFromNormsMany(query_, rows, run.norms, count, dist_.dim(),
                                 query_norm_, out);
  } else {
    dist_.Many(query_, rows, count, out);
  }
}

TimeWindow VectorStore::RangeWindow(const IdRange& range) const {
  const size_t n = size();
  MBI_CHECK(!range.Empty());
  MBI_CHECK(range.begin >= 0 && static_cast<size_t>(range.end) <= n);
  TimeWindow w;
  w.start = GetTimestamp(range.begin);
  if (static_cast<size_t>(range.end) < n) {
    w.end = GetTimestamp(range.end);
  } else {
    w.end = GetTimestamp(static_cast<VectorId>(n) - 1) + 1;
  }
  return w;
}

}  // namespace mbi
