// Parameters controlling kNN-graph construction for a block.

#ifndef MBI_GRAPH_BUILDER_PARAMS_H_
#define MBI_GRAPH_BUILDER_PARAMS_H_

#include <cstddef>
#include <cstdint>

namespace mbi {

/// Knobs for BuildKnnGraph (exact or NNDescent construction).
struct GraphBuildParams {
  /// Out-degree of the graph (the paper's "# neighbors", Table 3).
  size_t degree = 32;

  /// Blocks with at most this many vectors are built exactly (O(n^2 d));
  /// larger blocks use NNDescent. Up to 4,096 rows the tiled exact builder
  /// is the cheaper of the two for every (d, K) the repo builds (d 32-960,
  /// K 16-32), and its graph is the exact one; the crossover lies between
  /// 4k and 6k rows at K = 16 and above 8k rows at K >= 20 (DESIGN.md §3).
  /// Checkpointed indexes keep the value they were built with.
  size_t exact_threshold = 4096;

  /// NNDescent sampling rate rho: each iteration joins up to rho * degree
  /// new neighbors per node.
  double rho = 0.6;

  /// NNDescent stops when an iteration makes fewer than
  /// delta * n * degree pool updates.
  double delta = 0.001;

  /// Hard cap on NNDescent iterations.
  size_t max_iterations = 12;

  /// Seed for NNDescent's random initialization.
  uint64_t seed = 20240325;
};

}  // namespace mbi

#endif  // MBI_GRAPH_BUILDER_PARAMS_H_
