// Per-block kNN index abstraction.
//
// The paper notes MBI can use "any index structure for efficient kNN search"
// inside a block (Section 4.1). BlockKnnIndex is that seam: MBI's tree logic
// is agnostic to whether a block answers queries with a kNN graph
// (GraphBlockIndex, the paper's choice) or with an exact scan
// (FlatBlockIndex, used for ablations and for tiny blocks).

#ifndef MBI_INDEX_BLOCK_INDEX_H_
#define MBI_INDEX_BLOCK_INDEX_H_

#include <memory>
#include <string>

#include "core/time_window.h"
#include "core/topk.h"
#include "core/vector_store.h"
#include "graph/builder_params.h"
#include "graph/search.h"
#include "util/rng.h"
#include "util/status.h"

namespace mbi {

class ThreadPool;
class BinaryReader;
class BinaryWriter;

/// Which block index implementation MBI builds for full blocks.
enum class BlockIndexKind : uint32_t {
  kGraph = 0,  ///< NNDescent kNN graph + Algorithm 2 search (the paper)
  kFlat = 1,   ///< exact scan (no build cost; O(m) queries) — ablation
};

/// The number of BlockIndexKind values; every stored kind is checked
/// against it before use. A stored value at or past it (2 named a graph
/// kind that no longer exists) is corruption, never a kind to build.
inline constexpr uint32_t kNumBlockIndexKinds = 2;

const char* BlockIndexKindName(BlockIndexKind kind);

/// A built index over one contiguous store slice [range.begin, range.end).
///
/// Implementations do not own vector data; they reference the store passed
/// at build/search time. Search appends global-id hits to `results`.
class BlockKnnIndex {
 public:
  virtual ~BlockKnnIndex() = default;

  /// The slice this index covers.
  virtual IdRange range() const = 0;

  /// Approximate TkNN search within the slice. `id_filter == nullptr` means
  /// no restriction; otherwise only global ids in [begin, end) qualify (the
  /// id-range image of the query time window under the timestamp-sorted
  /// store). `searcher` provides reusable scratch (may be ignored by
  /// implementations that need none). `budget`, when non-null and active,
  /// is charged for the work done; implementations stop early once it is
  /// exhausted, leaving `results` with a valid best-effort subset.
  virtual void Search(const VectorStore& store, const float* query,
                      const SearchParams& params, const IdRange* id_filter,
                      GraphSearcher* searcher, Rng* rng, TopKHeap* results,
                      SearchStats* stats,
                      BudgetTracker* budget = nullptr) const = 0;

  /// Bytes of index structure (excludes the referenced vector data).
  virtual size_t MemoryBytes() const = 0;

  /// Serialization. Load must be called on a default-built instance.
  virtual Status Save(BinaryWriter* writer) const = 0;
  virtual Status Load(BinaryReader* reader) = 0;

  virtual BlockIndexKind kind() const = 0;
};

/// Builds a block index of `kind` over store slice `range`.
std::unique_ptr<BlockKnnIndex> BuildBlockIndex(
    BlockIndexKind kind, const VectorStore& store, const IdRange& range,
    const GraphBuildParams& params, ThreadPool* pool = nullptr);

/// Creates an empty index of `kind` suitable for Load().
std::unique_ptr<BlockKnnIndex> MakeEmptyBlockIndex(BlockIndexKind kind);

}  // namespace mbi

#endif  // MBI_INDEX_BLOCK_INDEX_H_
