#include "graph/nndescent.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "graph/exact_builder.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mbi {

namespace {

// Builder convergence metrics (observability for the indexing path).
struct NnDescentMetrics {
  obs::Counter* builds;
  obs::Counter* converged;
  obs::Histogram* iterations;
  obs::Histogram* final_update_rate;

  static const NnDescentMetrics& Get() {
    static const NnDescentMetrics m = [] {
      auto& reg = obs::MetricRegistry::Default();
      return NnDescentMetrics{
          reg.GetCounter("mbi_nndescent_builds_total",
                         "NNDescent graph constructions"),
          reg.GetCounter("mbi_nndescent_converged_total",
                         "builds that hit the delta convergence test before "
                         "max_iterations"),
          reg.GetHistogram("mbi_nndescent_iterations",
                           obs::Histogram::LinearBounds(1, 1, 16),
                           "local-join iterations per build"),
          reg.GetHistogram("mbi_nndescent_final_update_rate",
                           obs::Histogram::ExponentialBounds(1e-5, 10.0, 7),
                           "pool updates / (n*degree) in the last iteration "
                           "(convergence rate; lower = more converged)"),
      };
    }();
    return m;
  }
};

}  // namespace

namespace {

// One entry in a node's neighbor pool.
struct PoolEntry {
  float dist;
  NodeId id;
  bool is_new;
};

// Sorted bounded neighbor pool for one node (ascending distance).
class NeighborPool {
 public:
  void Init(size_t capacity) {
    capacity_ = capacity;
    entries_.reserve(capacity);
  }

  // Inserts (dist, id) if it improves the pool; returns true on change.
  // Duplicates (same id) are rejected.
  bool Insert(float dist, NodeId id) {
    if (entries_.size() == capacity_ && dist >= entries_.back().dist) {
      return false;
    }
    // Find insertion point, rejecting duplicates along the way. Pools are
    // small (the graph degree), so linear scans beat binary search + a
    // second duplicate pass.
    size_t pos = entries_.size();
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].id == id) return false;
      if (pos == entries_.size() && dist < entries_[i].dist) pos = i;
    }
    if (pos == entries_.size()) {
      if (entries_.size() == capacity_) return false;
      entries_.push_back({dist, id, true});
      return true;
    }
    if (entries_.size() == capacity_) entries_.pop_back();
    entries_.insert(entries_.begin() + pos, {dist, id, true});
    return true;
  }

  std::vector<PoolEntry>& entries() { return entries_; }
  const std::vector<PoolEntry>& entries() const { return entries_; }

 private:
  size_t capacity_ = 0;
  std::vector<PoolEntry> entries_;
};

}  // namespace

KnnGraph BuildNnDescentGraph(const VectorSlice& rows, size_t n,
                             const DistanceFunction& dist,
                             const GraphBuildParams& params,
                             ThreadPool* pool) {
  const size_t degree = std::min(params.degree, n > 1 ? n - 1 : size_t{1});
  if (n <= 2 || n <= degree + 1) {
    // Degenerate sizes: exact is trivial and NNDescent sampling breaks down.
    return BuildExactKnnGraph(rows, n, dist, params.degree);
  }

  const size_t sample_size =
      std::max<size_t>(1, static_cast<size_t>(params.rho * degree));

  std::vector<NeighborPool> pools(n);
  for (auto& p : pools) p.Init(degree);
  std::vector<Mutex> locks(pool != nullptr ? n : 0);

  // --- Random initialization: `degree` distinct random neighbors per node.
  {
    Rng rng(params.seed);
    std::vector<NodeId> picks;
    for (size_t v = 0; v < n; ++v) {
      picks.clear();
      while (picks.size() < degree) {
        NodeId u = static_cast<NodeId>(rng.NextBounded(n));
        if (u == v) continue;
        if (std::find(picks.begin(), picks.end(), u) != picks.end()) continue;
        picks.push_back(u);
      }
      // mbi-lint: allow(budget-charge) — build-side init, no query budget
      for (NodeId u : picks) {
        pools[v].Insert(dist(rows.row(v), rows.row(u)), u);
      }
    }
  }

  // Per-iteration sampled adjacency (forward + reverse, new + old).
  std::vector<std::vector<NodeId>> new_lists(n), old_lists(n);
  std::vector<std::vector<NodeId>> rev_new(n), rev_old(n);

  const size_t update_threshold = std::max<size_t>(
      1, static_cast<size_t>(params.delta * static_cast<double>(n) *
                             static_cast<double>(degree)));

  Rng sample_rng(params.seed ^ 0x9E3779B97F4A7C15ULL);

  size_t iterations_used = 0;
  size_t last_updates = 0;
  bool converged = false;

  for (size_t iter = 0; iter < params.max_iterations; ++iter) {
    // --- Phase 1: sample new/old neighbor lists per node.
    for (size_t v = 0; v < n; ++v) {
      auto& nl = new_lists[v];
      auto& ol = old_lists[v];
      nl.clear();
      ol.clear();
      rev_new[v].clear();
      rev_old[v].clear();
      size_t new_budget = sample_size;
      for (auto& e : pools[v].entries()) {
        if (e.is_new && new_budget > 0) {
          nl.push_back(e.id);
          e.is_new = false;  // consumed: will not be re-joined as "new"
          --new_budget;
        } else if (!e.is_new) {
          ol.push_back(e.id);
        }
      }
    }

    // --- Phase 2: reverse lists (sampled to sample_size).
    for (size_t v = 0; v < n; ++v) {
      for (NodeId u : new_lists[v]) rev_new[u].push_back(static_cast<NodeId>(v));
      for (NodeId u : old_lists[v]) rev_old[u].push_back(static_cast<NodeId>(v));
    }
    auto subsample = [&](std::vector<NodeId>& list) {
      if (list.size() <= sample_size) return;
      for (size_t i = 0; i < sample_size; ++i) {
        size_t j = i + sample_rng.NextBounded(list.size() - i);
        std::swap(list[i], list[j]);
      }
      list.resize(sample_size);
    };
    for (size_t v = 0; v < n; ++v) {
      subsample(rev_new[v]);
      subsample(rev_old[v]);
    }

    // --- Phase 3: local joins.
    std::atomic<size_t> updates{0};
    auto join_node = [&](size_t v) {
      // Candidate sets: forward + reverse, deduplicated per node pair by the
      // pool's own duplicate rejection.
      std::vector<NodeId> cand_new = new_lists[v];
      cand_new.insert(cand_new.end(), rev_new[v].begin(), rev_new[v].end());
      std::vector<NodeId> cand_old = old_lists[v];
      cand_old.insert(cand_old.end(), rev_old[v].begin(), rev_old[v].end());

      size_t local_updates = 0;
      auto try_update = [&](NodeId a, NodeId b, float d) {
        bool changed;
        if (pool != nullptr) {
          MutexLock g(locks[a]);
          changed = pools[a].Insert(d, b);
        } else {
          changed = pools[a].Insert(d, b);
        }
        if (changed) ++local_updates;
      };

      for (size_t i = 0; i < cand_new.size(); ++i) {
        NodeId p1 = cand_new[i];
        // new x new (unordered pairs)
        // mbi-lint: allow(budget-charge) — build-side refinement pass
        for (size_t j = i + 1; j < cand_new.size(); ++j) {
          NodeId p2 = cand_new[j];
          if (p1 == p2) continue;
          float d = dist(rows.row(p1), rows.row(p2));
          try_update(p1, p2, d);
          try_update(p2, p1, d);
        }
        // new x old
        // mbi-lint: allow(budget-charge) — build-side refinement pass
        for (NodeId p2 : cand_old) {
          if (p1 == p2) continue;
          float d = dist(rows.row(p1), rows.row(p2));
          try_update(p1, p2, d);
          try_update(p2, p1, d);
        }
      }
      updates.fetch_add(local_updates, std::memory_order_relaxed);
    };

    if (pool != nullptr) {
      pool->ParallelFor(n, join_node);
    } else {
      for (size_t v = 0; v < n; ++v) join_node(v);
    }

    ++iterations_used;
    last_updates = updates.load();
    if (last_updates < update_threshold) {
      converged = true;
      break;
    }
  }

  const NnDescentMetrics& metrics = NnDescentMetrics::Get();
  metrics.builds->Increment();
  if (converged) metrics.converged->Increment();
  metrics.iterations->Observe(static_cast<double>(iterations_used));
  metrics.final_update_rate->Observe(
      static_cast<double>(last_updates) /
      (static_cast<double>(n) * static_cast<double>(degree)));

  // --- Export pools to the flat graph.
  KnnGraph graph(n, params.degree);
  for (size_t v = 0; v < n; ++v) {
    const auto& entries = pools[v].entries();
    for (size_t i = 0; i < entries.size() && i < params.degree; ++i) {
      graph.SetNeighbor(static_cast<NodeId>(v), i, entries[i].id);
    }
  }
  return graph;
}

KnnGraph BuildKnnGraph(const VectorSlice& rows, size_t n,
                       const DistanceFunction& dist,
                       const GraphBuildParams& params, ThreadPool* pool) {
  if (n <= params.exact_threshold) {
    static obs::Counter* exact_builds =
        obs::MetricRegistry::Default().GetCounter(
            "mbi_exact_graph_builds_total",
            "blocks built with the O(n^2) exact kNN-graph builder");
    exact_builds->Increment();
    return BuildExactKnnGraph(rows, n, dist, params.degree);
  }
  return BuildNnDescentGraph(rows, n, dist, params, pool);
}

}  // namespace mbi
