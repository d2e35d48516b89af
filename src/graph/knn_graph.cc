#include "graph/knn_graph.h"

#include <algorithm>
#include <iterator>

#include "util/check.h"
#include "util/io.h"

namespace mbi {

namespace {

template <typename Id>
NodeId Widen(Id slot) {
  return slot == kEmptySlot<Id> ? kInvalidNode : static_cast<NodeId>(slot);
}

// Only for ids below KnnGraph::kMaxNarrowNodes, or kInvalidNode.
uint16_t Narrow(NodeId id) {
  return id == kInvalidNode ? kEmptySlot<uint16_t> : static_cast<uint16_t>(id);
}

}  // namespace

KnnGraph::KnnGraph(size_t num_nodes, size_t degree)
    : num_nodes_(num_nodes), degree_(degree) {
  MBI_CHECK(degree > 0);
  if (narrow()) {
    narrow_.assign(num_nodes * degree, kEmptySlot<uint16_t>);
  } else {
    wide_.assign(num_nodes * degree, kEmptySlot<uint32_t>);
  }
}

std::vector<NodeId> KnnGraph::Neighbors(NodeId node) const {
  std::vector<NodeId> out;
  out.reserve(degree_);
  VisitNeighbors(node, [&out](auto slots) {
    for (const auto slot : slots) out.push_back(Widen(slot));
  });
  return out;
}

void KnnGraph::SetNeighbor(NodeId node, size_t slot, NodeId neighbor) {
  MBI_DCHECK(node < num_nodes_ && slot < degree_);
  MBI_DCHECK(neighbor == kInvalidNode || neighbor < num_nodes_);
  const size_t at = static_cast<size_t>(node) * degree_ + slot;
  if (narrow()) {
    narrow_[at] = Narrow(neighbor);
  } else {
    wide_[at] = neighbor;
  }
}

size_t KnnGraph::NeighborCount(NodeId node) const {
  size_t count = 0;
  VisitNeighbors(node, [&count](auto slots) {
    for (const auto slot : slots) count += Widen(slot) != kInvalidNode;
  });
  return count;
}

double KnnGraph::AverageDegree() const {
  if (num_nodes_ == 0) return 0.0;
  size_t total = 0;
  for (size_t v = 0; v < num_nodes_; ++v) {
    total += NeighborCount(static_cast<NodeId>(v));
  }
  return static_cast<double>(total) / static_cast<double>(num_nodes_);
}

Status KnnGraph::Save(BinaryWriter* writer) const {
  MBI_RETURN_IF_ERROR(writer->Write<uint64_t>(num_nodes_));
  MBI_RETURN_IF_ERROR(writer->Write<uint64_t>(degree_));
  if (!narrow()) return writer->WriteVector(wide_);
  // The file holds uint32 slots at every width: write the 16-bit slots as
  // the length-prefixed uint32 vector WriteVector would, a chunk at a time.
  MBI_RETURN_IF_ERROR(writer->Write<uint64_t>(narrow_.size()));
  NodeId chunk[1024];
  for (size_t i = 0; i < narrow_.size(); i += std::size(chunk)) {
    const size_t m = std::min(std::size(chunk), narrow_.size() - i);
    for (size_t j = 0; j < m; ++j) chunk[j] = Widen(narrow_[i + j]);
    MBI_RETURN_IF_ERROR(writer->WriteBytes(chunk, m * sizeof(NodeId)));
  }
  return Status::Ok();
}

Status KnnGraph::Load(BinaryReader* reader) {
  uint64_t n = 0, d = 0;
  MBI_RETURN_IF_ERROR(reader->Read<uint64_t>(&n));
  MBI_RETURN_IF_ERROR(reader->Read<uint64_t>(&d));
  uint64_t expected = 0;
  if (!CheckedMul(n, d, &expected)) {
    return Status::IoError("corrupt KnnGraph: node count * degree overflows");
  }
  std::vector<NodeId> slots;
  MBI_RETURN_IF_ERROR(reader->ReadVector(&slots));
  if (slots.size() != expected) {
    return Status::IoError("corrupt KnnGraph: adjacency size mismatch");
  }
  // Neighbor ids index into the block slice; reject out-of-range entries so
  // a corrupt adjacency list can never drive an out-of-bounds vector read.
  // In a graph of at most kMaxNarrowNodes nodes this also rejects 0xFFFF,
  // so narrowing cannot turn a stored id into an empty slot.
  for (const NodeId nb : slots) {
    if (nb != kInvalidNode && static_cast<uint64_t>(nb) >= n) {
      return Status::IoError("corrupt KnnGraph: neighbor id out of range");
    }
  }
  num_nodes_ = n;
  degree_ = d;
  if (narrow()) {
    std::vector<uint16_t> narrowed(slots.size());
    std::transform(slots.begin(), slots.end(), narrowed.begin(), Narrow);
    narrow_ = std::move(narrowed);
    wide_ = {};
  } else {
    narrow_ = {};
    wide_ = std::move(slots);
  }
  return Status::Ok();
}

}  // namespace mbi
