#include "graph/exact_builder.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/check.h"

namespace mbi {

namespace {

// A node's candidate pool during exact construction: a bounded max-heap of
// (distance, node) pairs, mirroring TopKHeap but over NodeIds.
struct HeapEntry {
  float dist;
  NodeId id;
  bool operator<(const HeapEntry& o) const {
    if (dist != o.dist) return dist < o.dist;
    return id < o.id;
  }
};

}  // namespace

KnnGraph BuildExactKnnGraph(const VectorSlice& rows, size_t n,
                            const DistanceFunction& dist, size_t degree) {
  MBI_CHECK(degree > 0);
  KnnGraph graph(n, degree);
  if (n <= 1) return graph;

  std::vector<std::vector<HeapEntry>> heaps(n);
  for (auto& h : heaps) h.reserve(degree + 1);
  // worst[v] is the largest distance in v's heap once it is full, and NaN
  // before: `d >= worst[v]` refuses exactly what a full heap refuses and
  // nothing while it fills, since every comparison with NaN is false. Most
  // offers are refused by this one contiguous read.
  std::vector<float> worst(n, std::numeric_limits<float>::quiet_NaN());

  auto offer = [&](size_t v, float d, NodeId u) {
    if (d >= worst[v]) return;
    auto& h = heaps[v];
    if (h.size() < degree) {
      h.push_back({d, u});
      std::push_heap(h.begin(), h.end());
      if (h.size() < degree) return;
    } else {
      std::pop_heap(h.begin(), h.end());
      h.back() = {d, u};
      std::push_heap(h.begin(), h.end());
    }
    worst[v] = h.front().dist;
  };

  // Column tiles of kTile rows: every row i below a tile's end scores the
  // tile's columns j > i in one batch call, so each pair is scored once
  // while the tile stays in cache. Node v still receives its offers in
  // ascending neighbour id, as from a plain i < j pair loop: rows i < v
  // while v's tile is current, then its columns j > v tile by tile. So ties
  // at the heap boundary resolve the same way.
  constexpr size_t kTile = 256;
  const float* cols[kTile];
  float dists[kTile];
  for (size_t j0 = 0; j0 < n; j0 += kTile) {
    const size_t j1 = std::min(n, j0 + kTile);
    for (size_t j = j0; j < j1; ++j) cols[j - j0] = rows.row(j);
    // mbi-lint: allow(budget-charge) — offline O(n^2) build, no query budget
    for (size_t i = 0; i + 1 < j1; ++i) {
      const size_t first = std::max(j0, i + 1);
      dist.Many(rows.row(i), cols + (first - j0), j1 - first, dists);
      for (size_t j = first; j < j1; ++j) {
        const float d = dists[j - first];
        offer(i, d, static_cast<NodeId>(j));
        offer(j, d, static_cast<NodeId>(i));
      }
    }
  }

  for (size_t v = 0; v < n; ++v) {
    auto& h = heaps[v];
    std::sort(h.begin(), h.end());
    for (size_t s = 0; s < h.size(); ++s) {
      graph.SetNeighbor(static_cast<NodeId>(v), s, h[s].id);
    }
  }
  return graph;
}

}  // namespace mbi
