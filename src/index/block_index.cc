#include "index/block_index.h"

#include "index/flat_block_index.h"
#include "index/graph_block_index.h"
#include "util/check.h"

namespace mbi {

const char* BlockIndexKindName(BlockIndexKind kind) {
  switch (kind) {
    case BlockIndexKind::kGraph: return "graph";
    case BlockIndexKind::kFlat: return "flat";
  }
  return "unknown";
}

std::unique_ptr<BlockKnnIndex> BuildBlockIndex(BlockIndexKind kind,
                                               const VectorStore& store,
                                               const IdRange& range,
                                               const GraphBuildParams& params,
                                               ThreadPool* pool) {
  switch (kind) {
    case BlockIndexKind::kGraph:
      return std::make_unique<GraphBlockIndex>(store, range, params, pool);
    case BlockIndexKind::kFlat:
      return std::make_unique<FlatBlockIndex>(range);
  }
  MBI_CHECK(false);
  return nullptr;
}

std::unique_ptr<BlockKnnIndex> MakeEmptyBlockIndex(BlockIndexKind kind) {
  switch (kind) {
    case BlockIndexKind::kGraph:
      return std::make_unique<GraphBlockIndex>();
    case BlockIndexKind::kFlat:
      return std::make_unique<FlatBlockIndex>();
  }
  MBI_CHECK(false);
  return nullptr;
}

}  // namespace mbi
