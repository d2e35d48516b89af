#include "graph/search.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/check.h"

namespace mbi {

namespace {

// Process-wide Algorithm 2 counters, registered once.
struct SearcherMetrics {
  obs::Counter* searches;
  obs::Counter* nodes_expanded;
  obs::Counter* distance_evals;
  obs::Counter* pool_rejects;
  obs::Counter* filter_hits;

  static const SearcherMetrics& Get() {
    static const SearcherMetrics m = [] {
      auto& reg = obs::MetricRegistry::Default();
      return SearcherMetrics{
          reg.GetCounter("mbi_search_graph_searches_total",
                         "Algorithm 2 invocations (one per searched block)"),
          reg.GetCounter("mbi_search_nodes_expanded_total",
                         "candidate-pool pops whose edges were scanned"),
          reg.GetCounter("mbi_search_distance_evals_total",
                         "distance evaluations during graph search (a "
                         "vertex at most once per block search)"),
          reg.GetCounter("mbi_search_pool_rejects_total",
                         "neighbors rejected by the bounded pool or the "
                         "epsilon range restriction (at most once per "
                         "block search)"),
          reg.GetCounter("mbi_search_filter_hits_total",
                         "expanded vertices inside the query id filter"),
      };
    }();
    return m;
  }
};

}  // namespace

size_t GraphSearcher::PoolInsert(float dist, NodeId id, size_t capacity) {
  size_t pos = pool_.size();
  if (pos == capacity) {
    if (dist >= pool_[pos - 1].dist) return SIZE_MAX;
    --pos;  // the evicted last entry's slot
  } else {
    pool_.emplace_back();
  }
  // A new candidate is usually among the worst, so the position is found
  // from the back, moving each farther entry up one slot on the way.
  Candidate* c = pool_.data();
  for (; pos > 0 && c[pos - 1].dist >= dist; --pos) c[pos] = c[pos - 1];
  c[pos] = Candidate{dist, id};
  return pos;
}

void GraphSearcher::Search(const VectorStore& store, const KnnGraph& graph,
                           const IdRange& range, const float* query,
                           const SearchParams& params, const IdRange* id_filter,
                           Rng* rng, TopKHeap* results, SearchStats* stats,
                           BudgetTracker* budget) {
  const size_t n = static_cast<size_t>(range.size());
  MBI_CHECK(graph.num_nodes() == n);
  MBI_CHECK(n <= Candidate::kExpanded);
  if (n == 0) return;

  // While the result set holds fewer than k in-window vectors, the candidate
  // set may grow without bound: the paper's SF "continues searching until it
  // identifies k or more vectors within the time window" (Section 3.2.2),
  // which is what makes it slow-but-accurate on short windows. Once R is
  // full, C is pruned to the M_C nearest (Algorithm 2 lines 16-17).
  const size_t bounded_capacity = std::max(params.max_candidates, params.k);
  // Scores by global id: the store is chunked, so the slice
  // [range.begin, range.end) need not be contiguous in memory.
  const RowScorer score(store, query);

  pool_.clear();
  // The pool holds each node at most once, so the block's node count bounds
  // it whatever k is.
  pool_.reserve(std::min(bounded_capacity, n) + 1);
  queued_.EnsureCapacity(n);
  queued_.Reset();

  SearchStats local_stats;

  const bool budgeted = budget != nullptr && budget->active();

  // Line 1: random entry vertices.
  const size_t entries = std::min(std::max<size_t>(1, params.num_entry_points), n);
  for (size_t i = 0; i < entries; ++i) {
    NodeId s = static_cast<NodeId>(rng->NextBounded(n));
    if (queued_.TestAndSet(s)) continue;
    float d = score(range.begin + static_cast<VectorId>(s));
    ++local_stats.distance_evaluations;
    if (budgeted && !budget->ChargeDistance()) break;
    PoolInsert(d, s, bounded_capacity);
  }

  // Lines 5-17: expand the nearest unexpanded candidate until none remain
  // (or, under a budget, until the budget is exhausted — the pool and the
  // result set are valid at every iteration boundary, so stopping early
  // degrades recall but never correctness).
  size_t scan_from = 0;
  while (scan_from < pool_.size()) {
    if (pool_[scan_from].expanded()) {
      ++scan_from;
      continue;
    }
    if (budgeted && (budget->Exhausted() || !budget->ChargeHop())) break;
    Candidate& cur = pool_[scan_from];
    cur.word |= Candidate::kExpanded;
    ++local_stats.nodes_expanded;
    const NodeId v = cur.id();
    const float cur_dist = cur.dist;

    // Lines 12-15: in-window vertices feed the result set.
    const VectorId global_id = range.begin + static_cast<VectorId>(v);
    if (id_filter == nullptr ||
        (id_filter->begin <= global_id && global_id < id_filter->end)) {
      ++local_stats.filter_hits;
      const bool was_full = results->Full();
      results->Push(cur_dist, global_id);
      if (!was_full && results->Full() && pool_.size() > bounded_capacity) {
        // R just reached k: prune the grown candidate set back to M_C.
        pool_.resize(bounded_capacity);
        if (scan_from > pool_.size()) scan_from = pool_.size();
      }
    }

    // Lines 8-11: neighbor expansion, range-restricted once |R| >= k.
    // The bound must *loosen* max(R) by epsilon regardless of sign: inner-
    // product distances are negative, where multiplying by epsilon > 1 would
    // tighten the bound instead.
    const bool restrict_range = results->Full();
    float bound = 0.0f;
    if (restrict_range) {
      const float worst = results->WorstDistance();
      bound = worst >= 0.0f ? params.epsilon * worst : worst / params.epsilon;
    }
    const size_t capacity = restrict_range ? bounded_capacity : SIZE_MAX;
    size_t min_inserted = SIZE_MAX;
    // A neighbor is marked when scored, whether or not it enters C. Once R
    // is full, max(R) and with it the bound only fall, so a neighbor the
    // bound refuses would be refused at every later visit: each vertex is
    // scored at most once, with the same results. The slots are read at the
    // width the graph stores them, 16 or 32 bits.
    graph.VisitNeighbors(v, [&](auto slots) {
      using Id = typename decltype(slots)::value_type;
      for (const Id nb : slots) {
        if (nb == kEmptySlot<Id>) break;
        if (queued_.TestAndSet(nb)) continue;
        float d = score(range.begin + static_cast<VectorId>(nb));
        ++local_stats.distance_evaluations;
        if (budgeted && !budget->ChargeDistance()) break;
        if (restrict_range && !(d < bound)) {
          ++local_stats.pool_rejects;
          continue;
        }
        size_t pos = PoolInsert(d, nb, capacity);
        if (pos != SIZE_MAX) {
          min_inserted = std::min(min_inserted, pos);
        } else {
          ++local_stats.pool_rejects;
        }
      }
    });
    // Restart the scan at the nearest newly inserted candidate.
    if (min_inserted < scan_from) scan_from = min_inserted;
  }

  const SearcherMetrics& metrics = SearcherMetrics::Get();
  metrics.searches->Increment();
  metrics.nodes_expanded->Increment(local_stats.nodes_expanded);
  metrics.distance_evals->Increment(local_stats.distance_evaluations);
  metrics.pool_rejects->Increment(local_stats.pool_rejects);
  metrics.filter_hits->Increment(local_stats.filter_hits);
  if (stats != nullptr) *stats += local_stats;
}

}  // namespace mbi
