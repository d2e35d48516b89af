// Time-filtered best-first graph search — Algorithm 2 of the paper.
//
// The searcher walks a block's kNN graph toward the query vector keeping a
// bounded candidate pool of the M_C nearest discovered nodes. Nodes whose
// timestamp falls inside the query window feed the result set R; once R holds
// k entries, expansion is restricted to neighbors closer than
// epsilon * max(R) (the paper's search-range parameter).

#ifndef MBI_GRAPH_SEARCH_H_
#define MBI_GRAPH_SEARCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/time_window.h"
#include "core/topk.h"
#include "core/types.h"
#include "core/vector_store.h"
#include "graph/knn_graph.h"
#include "util/budget.h"
#include "util/rng.h"
#include "util/visited_set.h"

namespace mbi {

/// Query-time knobs for Algorithm 2 (paper Table 3).
struct SearchParams {
  /// Number of nearest neighbors to return (k).
  size_t k = 10;

  /// Maximum candidate-set size M_C; the pool retains the M_C nearest
  /// discovered nodes.
  size_t max_candidates = 64;

  /// Range factor epsilon in [1, ~1.4]: larger explores more and raises
  /// recall at the cost of speed.
  float epsilon = 1.1f;

  /// Number of random entry vertices. The paper samples one; a few extra
  /// seeds make small-degree graphs robust at negligible cost.
  size_t num_entry_points = 1;

  /// Optional per-query execution budget (deadline, work caps,
  /// cancellation), caller-owned and shared by every block the query
  /// touches. Null = unbounded (the paper's semantics). On exhaustion the
  /// query returns best-effort partial results flagged kDegraded.
  const QueryBudget* budget = nullptr;
};

/// Counters describing one search (used by benches, tests and obs traces).
/// Every field accumulates across calls, so one SearchStats can sum the
/// per-block searches of a whole MBI query.
struct SearchStats {
  size_t nodes_expanded = 0;      ///< pool pops (vertices whose edges we scanned)
  size_t distance_evaluations = 0;
  size_t pool_rejects = 0;        ///< candidates refused by the bounded pool
                                  ///< or by the epsilon range restriction
  size_t filter_hits = 0;         ///< expanded vertices inside the id filter
                                  ///< (offered to the result set)

  SearchStats& operator+=(const SearchStats& o) {
    nodes_expanded += o.nodes_expanded;
    distance_evaluations += o.distance_evaluations;
    pool_rejects += o.pool_rejects;
    filter_hits += o.filter_hits;
    return *this;
  }
};

/// Reusable scratch state for Algorithm 2. Not thread-safe; use one searcher
/// per thread. Results carry *global* VectorIds (range.begin + local id).
class GraphSearcher {
 public:
  GraphSearcher() = default;

  /// Runs Algorithm 2 over `graph`, which indexes the store slice
  /// [range.begin, range.end). If `id_filter` is non-null only vectors whose
  /// *global* id lies in [id_filter->begin, id_filter->end) enter the result
  /// set; expansion still traverses filtered-out vertices (they guide
  /// navigation). Because the store is timestamp-sorted, a time window maps
  /// to exactly one id range (VectorStore::FindRange) — this is the paper's
  /// convention for vectors sharing a timestamp (Section 3.1): the query
  /// range runs from the earliest-ordered vector with the start timestamp to
  /// the last-ordered vector before the end timestamp.
  ///
  /// Results are appended to `results` (callers merge across blocks).
  ///
  /// `budget`, when non-null and active, is charged one hop per expanded
  /// vertex and one unit per distance evaluation; the walk stops as soon as
  /// the tracker reports exhaustion. Results gathered up to that point stay
  /// valid (only in-window vertices ever enter `results`).
  void Search(const VectorStore& store, const KnnGraph& graph,
              const IdRange& range, const float* query,
              const SearchParams& params, const IdRange* id_filter,
              Rng* rng, TopKHeap* results, SearchStats* stats = nullptr,
              BudgetTracker* budget = nullptr);

 private:
  // One pool entry in 8 bytes: the expanded flag rides in the id word's top
  // bit, which no node id reaches (Search checks the block's node count).
  struct Candidate {
    static constexpr uint32_t kExpanded = uint32_t{1} << 31;

    float dist;
    uint32_t word;  // NodeId | kExpanded once the node's edges are scanned

    NodeId id() const { return word & ~kExpanded; }
    bool expanded() const { return (word & kExpanded) != 0; }
  };

  // Inserts into the pool, kept in ascending distance with a new candidate
  // before equal-distance ones. A full pool (`capacity` entries) drops its
  // last entry, the oldest of the worst, or rejects a candidate no nearer.
  // Returns the insertion position, or SIZE_MAX if rejected.
  size_t PoolInsert(float dist, NodeId id, size_t capacity);

  std::vector<Candidate> pool_;
  VisitedSet queued_;  // node ever scored (entered C or was refused)
};

}  // namespace mbi

#endif  // MBI_GRAPH_SEARCH_H_
