#include "scenario/invariants.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/topk.h"

namespace mbi::scenario {

const char* InvariantName(InvariantId id) {
  switch (id) {
    case InvariantId::kNoLostAckedWrites: return "no-lost-acked-writes";
    case InvariantId::kRecallFloor: return "recall-floor";
    case InvariantId::kDeadlineOvershoot: return "p99-overshoot";
    case InvariantId::kResultValidity: return "degraded-never-invalid";
    case InvariantId::kMetricsConsistency: return "metrics-consistency";
    case InvariantId::kAdmissionBound: return "admission-bound";
    case InvariantId::kShardOracleMatch: return "shard-oracle-match";
    case InvariantId::kShardRetryBudget: return "shard-retry-budget";
  }
  return "unknown";
}

SearchResult ExactOracleTopK(const VectorStore& store, size_t view_size,
                             const float* query, size_t k,
                             const TimeWindow& window) {
  SearchResult out;
  if (k == 0 || view_size == 0) return out;
  const IdRange range =
      store.FindRangeInPrefix(window, std::min(view_size, store.size()));
  if (range.size() <= 0) return out;
  const DistanceFunction& dist = store.distance();
  TopKHeap heap(k);
  VectorId id = range.begin;
  while (id < range.end) {
    const VectorStore::ContiguousRun run = store.Run(id, range.end);
    // mbi-lint: allow(budget-charge) — exact oracle, deliberately unbudgeted
    for (size_t i = 0; i < run.count; ++i) {
      heap.Push(dist(query, run.data + i * store.dim()),
                id + static_cast<VectorId>(i));
    }
    id += static_cast<VectorId>(run.count);
  }
  return heap.ExtractSorted();
}

std::string CheckResultValidity(const VectorStore& store, size_t view_size,
                                const TimeWindow& window,
                                const float* query, size_t k,
                                const SearchResult& result) {
  char buf[192];
  if (result.size() > k) {
    std::snprintf(buf, sizeof(buf), "result holds %zu > k=%zu neighbors",
                  result.size(), k);
    return buf;
  }
  if (result.shards_ok < result.shards_total && !result.degraded()) {
    std::snprintf(buf, sizeof(buf),
                  "%u/%u shards answered but the result claims completeness",
                  result.shards_ok, result.shards_total);
    return buf;
  }
  const DistanceFunction& dist = store.distance();
  float prev = -std::numeric_limits<float>::infinity();
  VectorId prev_id = -1;
  // mbi-lint: allow(budget-charge) — invariant recompute, not a query path
  for (size_t i = 0; i < result.size(); ++i) {
    const Neighbor& nb = result[i];
    if (nb.id < 0 || static_cast<size_t>(nb.id) >= view_size) {
      std::snprintf(buf, sizeof(buf),
                    "neighbor %zu: id %lld outside pinned view of %zu", i,
                    static_cast<long long>(nb.id), view_size);
      return buf;
    }
    const Timestamp ts = store.GetTimestamp(nb.id);
    if (!window.Contains(ts)) {
      std::snprintf(buf, sizeof(buf),
                    "neighbor %zu: id %lld timestamp %lld outside window "
                    "[%lld, %lld)",
                    i, static_cast<long long>(nb.id),
                    static_cast<long long>(ts),
                    static_cast<long long>(window.start),
                    static_cast<long long>(window.end));
      return buf;
    }
    const float recomputed = dist(query, store.GetVector(nb.id));
    if (recomputed != nb.distance) {
      std::snprintf(buf, sizeof(buf),
                    "neighbor %zu: reported distance %g != recomputed %g", i,
                    nb.distance, recomputed);
      return buf;
    }
    if (nb.distance < prev) {
      std::snprintf(buf, sizeof(buf),
                    "neighbor %zu: distances not sorted (%g after %g)", i,
                    nb.distance, prev);
      return buf;
    }
    // Sorted by (distance, id), a duplicate id lands next to its twin.
    if (nb.distance == prev && nb.id == prev_id) {
      std::snprintf(buf, sizeof(buf), "neighbor %zu: duplicate id %lld", i,
                    static_cast<long long>(nb.id));
      return buf;
    }
    prev = nb.distance;
    prev_id = nb.id;
  }
  return "";
}

double PercentileSink::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t idx = static_cast<size_t>(std::ceil(rank));
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace mbi::scenario
