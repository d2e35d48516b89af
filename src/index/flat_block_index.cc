#include "index/flat_block_index.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/io.h"

namespace mbi {

void ExactScan(const VectorStore& store, const IdRange& range,
               const float* query, const IdRange* id_filter, TopKHeap* results,
               SearchStats* stats, BudgetTracker* budget) {
  // Narrow to the in-window sub-slice (Algorithm 1 restricted to this
  // block's slice; the filter is already an id range).
  IdRange scan = range;
  if (id_filter != nullptr) {
    scan.begin = std::max(scan.begin, id_filter->begin);
    scan.end = std::min(scan.end, id_filter->end);
  }
  if (scan.Empty()) return;

  const bool budgeted = budget != nullptr && budget->active();
  const DistanceFunction& dist = store.distance();
  const size_t dim = store.dim();
  size_t m = 0;  // rows actually scanned (== scan.size() when unbudgeted)
  // Walk chunk-contiguous runs in sub-batches of at most kSubBatch rows.
  // Each sub-batch is charged up front (one branch per kSubBatch rows
  // instead of one per row), so overshoot is bounded by kSubBatch rows, and
  // then scored by one batch-kernel call and pushed in id order.
  constexpr size_t kSubBatch = 64;
  const float* rows[kSubBatch];
  float dists[kSubBatch];
  for (VectorId id = scan.begin; id < scan.end;) {
    const VectorStore::ContiguousRun run = store.Run(id, scan.end);
    size_t done = 0;
    while (done < run.count) {
      const size_t batch = std::min(kSubBatch, run.count - done);
      if (budgeted && !budget->ChargeDistance(batch)) break;
      for (size_t i = 0; i < batch; ++i) {
        rows[i] = run.data + (done + i) * dim;
      }
      dist.Many(query, rows, batch, dists);
      for (size_t i = 0; i < batch; ++i) {
        results->Push(dists[i], id + static_cast<VectorId>(done + i));
      }
      done += batch;
    }
    m += done;
    if (done < run.count) break;  // budget exhausted mid-run
    id += static_cast<VectorId>(run.count);
  }
  static obs::Counter* scans = obs::MetricRegistry::Default().GetCounter(
      "mbi_search_exact_scans_total",
      "exact (BSBF-style) block scans, incl. adaptive fallbacks");
  static obs::Counter* evals = obs::MetricRegistry::Default().GetCounter(
      "mbi_search_exact_distance_evals_total",
      "distance evaluations spent in exact block scans");
  scans->Increment();
  evals->Increment(m);
  if (stats != nullptr) {
    stats->distance_evaluations += m;
    // Every scanned vector is in-filter by construction and offered to R.
    stats->filter_hits += m;
  }
}

void FlatBlockIndex::Search(const VectorStore& store, const float* query,
                            const SearchParams& /*params*/,
                            const IdRange* id_filter,
                            GraphSearcher* /*searcher*/, Rng* /*rng*/,
                            TopKHeap* results, SearchStats* stats,
                            BudgetTracker* budget) const {
  ExactScan(store, range_, query, id_filter, results, stats, budget);
}

Status FlatBlockIndex::Save(BinaryWriter* writer) const {
  MBI_RETURN_IF_ERROR(writer->Write<int64_t>(range_.begin));
  return writer->Write<int64_t>(range_.end);
}

Status FlatBlockIndex::Load(BinaryReader* reader) {
  MBI_RETURN_IF_ERROR(reader->Read<int64_t>(&range_.begin));
  MBI_RETURN_IF_ERROR(reader->Read<int64_t>(&range_.end));
  if (range_.begin < 0 || range_.end < range_.begin) {
    return Status::IoError("corrupt FlatBlockIndex: invalid id range");
  }
  return Status::Ok();
}

}  // namespace mbi
