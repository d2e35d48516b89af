// NNDescent approximate kNN-graph construction (Dong, Charikar, Li — WWW'11).
//
// The paper builds every MBI block and the SF baseline's global graph with
// NNDescent; its empirical O(n^1.14) build time underlies the paper's
// indexing-time analysis (Section 4.4.2). Here BuildKnnGraph sends blocks of
// at most GraphBuildParams::exact_threshold rows (4,096 by default) to the
// exact builder instead, which is cheaper at that size and exact, so
// NNDescent builds only the larger blocks.

#ifndef MBI_GRAPH_NNDESCENT_H_
#define MBI_GRAPH_NNDESCENT_H_

#include <cstddef>

#include "core/distance.h"
#include "core/vector_store.h"
#include "graph/builder_params.h"
#include "graph/knn_graph.h"

namespace mbi {

class ThreadPool;

/// Builds an approximate kNN graph over `n` vectors addressed through `rows`
/// using NNDescent local joins. If `pool` is non-null the join phase runs on
/// it.
///
/// The graph converges when an iteration performs fewer than
/// params.delta * n * degree pool updates, or after params.max_iterations.
KnnGraph BuildNnDescentGraph(const VectorSlice& rows, size_t n,
                             const DistanceFunction& dist,
                             const GraphBuildParams& params,
                             ThreadPool* pool = nullptr);

/// Dispatches to exact construction when n <= params.exact_threshold and to
/// NNDescent otherwise. This is the builder MBI and SF call for each graph.
KnnGraph BuildKnnGraph(const VectorSlice& rows, size_t n,
                       const DistanceFunction& dist,
                       const GraphBuildParams& params,
                       ThreadPool* pool = nullptr);

/// Convenience overloads for a contiguous row-major buffer.
inline KnnGraph BuildNnDescentGraph(const float* data, size_t n,
                                    const DistanceFunction& dist,
                                    const GraphBuildParams& params,
                                    ThreadPool* pool = nullptr) {
  return BuildNnDescentGraph(VectorSlice(data, dist.dim()), n, dist, params,
                             pool);
}
inline KnnGraph BuildKnnGraph(const float* data, size_t n,
                              const DistanceFunction& dist,
                              const GraphBuildParams& params,
                              ThreadPool* pool = nullptr) {
  return BuildKnnGraph(VectorSlice(data, dist.dim()), n, dist, params, pool);
}

}  // namespace mbi

#endif  // MBI_GRAPH_NNDESCENT_H_
