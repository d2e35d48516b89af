// Per-query EXPLAIN trace for MBI's Algorithm 4.
//
// A QueryTrace is the structured answer to "what did this query actually
// do?": the id range the time window mapped to, every node the block
// selection visited with its overlap ratio r_o and tau decision, and — for
// each block that was searched — whether it used its graph or an exact scan,
// the Algorithm 2 counters, and the wall time spent. Render it for humans
// with ToString() (an EXPLAIN-style table) or for machines with ToJson().
//
// Obtain one by passing a QueryTrace* to MbiIndex::Search or SearchView.
// Tracing is strictly per-query and heap-allocating; the always-on process
// metrics (obs/metrics.h) are the cheap path, traces are the deep one.

#ifndef MBI_OBS_TRACE_H_
#define MBI_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/time_window.h"
#include "core/vector_store.h"
#include "graph/search.h"
#include "mbi/block_tree.h"

namespace mbi::obs {

/// One searched block of a traced query.
struct BlockTrace {
  TreeNode node;               ///< tree coordinates (height, pos)
  IdRange range;               ///< store slice the block covers
  double overlap_ratio = 0.0;  ///< r_o(q, B) at selection time
  bool used_graph = false;     ///< false => exact scan (tail leaf or
                               ///< adaptive fallback)
  bool fully_covered = false;  ///< block inside the window: filter dropped
  SearchStats stats;           ///< this block's search counters only
  double seconds = 0.0;        ///< wall time inside this block
  size_t hits = 0;             ///< results the block offered to the merge
};

/// Budget spend and outcome of one traced query (all zeros / kComplete for
/// unbudgeted queries).
struct BudgetTrace {
  bool bounded = false;            ///< the query carried an active budget
  double deadline_seconds = 0.0;   ///< total allowance; 0 = no deadline
  uint64_t max_distance_evals = 0;  ///< 0 = unlimited
  uint64_t max_hops = 0;            ///< 0 = unlimited
  uint64_t distance_evals_spent = 0;
  uint64_t hops_spent = 0;
  size_t blocks_skipped = 0;       ///< selected blocks dropped on exhaustion
  Completion completion = Completion::kComplete;
  DegradeReason degrade_reason = DegradeReason::kNone;
};

/// EXPLAIN record of one MBI query.
struct QueryTrace {
  // Query parameters.
  TimeWindow window;
  IdRange id_range;  ///< image of `window` under the timestamp-sorted store
  double tau = 0.0;
  SearchParams params;

  // Algorithm 4 decisions, in visit order (includes skipped/recursed nodes).
  std::vector<SelectionStep> selection;

  // The blocks actually searched, in search order.
  std::vector<BlockTrace> blocks;

  // Whole-query rollup.
  double total_seconds = 0.0;
  size_t results_returned = 0;

  // Budget spend and degradation outcome.
  BudgetTrace budget;

  /// Sum of per-block counters (equals MbiQueryStats.search).
  SearchStats TotalStats() const;

  size_t GraphBlocks() const;
  size_t ExactBlocks() const;

  /// Human-readable EXPLAIN rendering (util/table alignment).
  std::string ToString() const;

  /// Machine-readable JSON document (single object).
  std::string ToJson() const;
};

}  // namespace mbi::obs

#endif  // MBI_OBS_TRACE_H_
