// Fixed-degree kNN graph with flat adjacency storage.
//
// Nodes are block-local ids in [0, n). Each node stores up to `degree`
// out-neighbors sorted by increasing distance, in flat row-major slots: the
// O(n * k') integers per block of the paper's index-size analysis (Section
// 4.4.1). A graph of at most kMaxNarrowNodes nodes stores each slot as a
// uint16_t and a larger one as a uint32_t; the node count alone decides.
// So ids cost 2 bytes per slot in graphs of up to 65,535 nodes and 4 bytes
// above that. At either width an empty slot holds the type's maximum value
// (kEmptySlot<Id>), which no node id reaches. Callers that read or write
// NodeIds see an empty slot as kInvalidNode; Algorithm 2 reads the stored
// width through VisitNeighbors. The on-disk layout is uint32 at every width.

#ifndef MBI_GRAPH_KNN_GRAPH_H_
#define MBI_GRAPH_KNN_GRAPH_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/status.h"

namespace mbi {

class BinaryReader;
class BinaryWriter;

/// Block-local node id.
using NodeId = uint32_t;

inline constexpr NodeId kInvalidNode = UINT32_MAX;

/// The empty-slot marker of adjacency stored as Id: 0xFFFF or kInvalidNode.
template <typename Id>
inline constexpr Id kEmptySlot = std::numeric_limits<Id>::max();

class KnnGraph {
 public:
  /// The largest graph whose slots are stored in 16 bits: its ids stay
  /// below kEmptySlot<uint16_t>.
  static constexpr size_t kMaxNarrowNodes = 65535;

  KnnGraph() = default;

  /// Creates an n-node graph with `degree` neighbor slots per node, all
  /// empty.
  KnnGraph(size_t num_nodes, size_t degree);

  size_t num_nodes() const { return num_nodes_; }
  size_t degree() const { return degree_; }
  bool empty() const { return num_nodes_ == 0; }

  /// Calls `fn(slots)` with the neighbor slots of `node` as stored: a
  /// std::span<const uint16_t> for graphs of at most kMaxNarrowNodes nodes,
  /// else a std::span<const uint32_t>. Empty slots hold kEmptySlot and
  /// follow every neighbor.
  template <typename Fn>
  void VisitNeighbors(NodeId node, Fn&& fn) const {
    const size_t first = static_cast<size_t>(node) * degree_;
    if (narrow()) {
      fn(std::span<const uint16_t>(narrow_.data() + first, degree_));
    } else {
      fn(std::span<const uint32_t>(wide_.data() + first, degree_));
    }
  }

  /// The neighbor slots of `node` as NodeIds, padded with kInvalidNode at
  /// the tail. A copy: for tests and cold readers, not the search loop.
  std::vector<NodeId> Neighbors(NodeId node) const;

  /// Stores `neighbor` (a node id, or kInvalidNode to empty the slot) in
  /// slot `slot` of `node`.
  void SetNeighbor(NodeId node, size_t slot, NodeId neighbor);

  /// Number of valid (non-empty) neighbor slots of `node`.
  size_t NeighborCount(NodeId node) const;

  /// Bytes held by the adjacency array (the block's index size).
  size_t MemoryBytes() const {
    return narrow_.size() * sizeof(uint16_t) + wide_.size() * sizeof(uint32_t);
  }

  /// Average out-degree over all nodes.
  double AverageDegree() const;

  Status Save(BinaryWriter* writer) const;
  Status Load(BinaryReader* reader);

  friend bool operator==(const KnnGraph& a, const KnnGraph& b) {
    return a.num_nodes_ == b.num_nodes_ && a.degree_ == b.degree_ &&
           a.narrow_ == b.narrow_ && a.wide_ == b.wide_;
  }

 private:
  // The width rule: 16-bit slots up to kMaxNarrowNodes nodes.
  bool narrow() const { return num_nodes_ <= kMaxNarrowNodes; }

  size_t num_nodes_ = 0;
  size_t degree_ = 0;
  // narrow() picks which of the two holds the num_nodes_ * degree_ slots.
  std::vector<uint16_t> narrow_;
  std::vector<uint32_t> wide_;
};

}  // namespace mbi

#endif  // MBI_GRAPH_KNN_GRAPH_H_
