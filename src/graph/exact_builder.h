// Exact O(n^2 d) kNN-graph construction for small blocks.

#ifndef MBI_GRAPH_EXACT_BUILDER_H_
#define MBI_GRAPH_EXACT_BUILDER_H_

#include <cstddef>

#include "core/distance.h"
#include "core/vector_store.h"
#include "graph/knn_graph.h"

namespace mbi {

/// Builds the exact kNN graph over `n` vectors addressed through `rows`:
/// node v's neighbor list holds the `degree` nearest other nodes, sorted by
/// distance (ties by smaller id). Each pair distance is computed once, by
/// the batch kernel over cache-sized column tiles.
KnnGraph BuildExactKnnGraph(const VectorSlice& rows, size_t n,
                            const DistanceFunction& dist, size_t degree);

/// Convenience overload for a contiguous row-major buffer.
inline KnnGraph BuildExactKnnGraph(const float* data, size_t n,
                                   const DistanceFunction& dist,
                                   size_t degree) {
  return BuildExactKnnGraph(VectorSlice(data, dist.dim()), n, dist, degree);
}

}  // namespace mbi

#endif  // MBI_GRAPH_EXACT_BUILDER_H_
