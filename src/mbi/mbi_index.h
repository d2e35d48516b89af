// MbiIndex — Multi-level Block Indexing for time-restricted kNN search.
//
// The paper's primary contribution (Section 4). An MbiIndex owns an
// append-only VectorStore plus a forest of per-block kNN indexes arranged as
// an implicit perfect binary tree over time. Vectors are inserted in
// timestamp order (Algorithm 3: leaf fills, then bottom-up block merging,
// optionally in parallel); TkNN queries run Algorithm 4 (top-down block
// selection followed by per-block search and result merging).

#ifndef MBI_MBI_MBI_INDEX_H_
#define MBI_MBI_MBI_INDEX_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/time_window.h"
#include "core/types.h"
#include "core/vector_store.h"
#include "graph/builder_params.h"
#include "graph/search.h"
#include "index/block_index.h"
#include "mbi/block_tree.h"
#include "obs/trace.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mbi {

class ThreadPool;

namespace persist {
class FileSystem;
}

/// Construction-time and query-time parameters of MBI (paper Table 3).
struct MbiParams {
  /// Leaf block capacity S_L.
  int64_t leaf_size = 10000;

  /// Block-selection threshold tau in (0, 1]. The paper proves at most two
  /// blocks are searched when tau <= 0.5 (Lemma 4.1) and recommends ~0.5.
  double tau = 0.5;

  /// Per-block index implementation (graph = the paper's choice).
  BlockIndexKind block_kind = BlockIndexKind::kGraph;

  /// kNN-graph construction knobs.
  GraphBuildParams build;

  /// Worker threads for bottom-up block merging; 1 = serial. The cascade of
  /// blocks finished by one insertion is built concurrently, as in the
  /// paper's "Parallelization of MBI".
  size_t num_threads = 1;

  /// Extension (off by default for paper fidelity): per selected block,
  /// fall back to an exact scan when the block's in-window vector count is
  /// at most M_C * degree — the expected number of distance evaluations of
  /// the graph search. Makes MBI at least as fast as BSBF on short windows
  /// at any scale; see bench_ablation_adaptive.
  bool adaptive_block_search = false;

  /// Admission control: maximum queries in flight through SearchAdmitted
  /// at once (0 = unlimited). Excess queries are shed immediately with
  /// kResourceExhausted instead of queueing — bounded work beats unbounded
  /// latency under overload.
  size_t max_inflight_queries = 0;

  /// Retry-after hint carried in the shed Status message.
  double shed_retry_after_seconds = 0.01;

  /// Ingest backpressure: maximum block indexes built by one Add (0 =
  /// unlimited, the paper's semantics — a leaf completion builds its whole
  /// merge cascade before returning). When capped, overflow builds are
  /// deferred to later Adds (or FinishPendingBuilds), bounding the writer's
  /// worst-case stall; queries stay exact over the not-yet-covered tail via
  /// the pseudo-leaf scan.
  size_t max_blocks_per_add = 0;

  /// Validates ranges; returns InvalidArgument on nonsense values.
  Status Validate() const;
};

/// Aggregate statistics for reporting (Table 4 / Figure 7).
struct MbiStats {
  size_t num_vectors = 0;
  size_t num_blocks = 0;           ///< full blocks with an index
  size_t num_levels = 0;           ///< distinct materialized heights
  size_t index_bytes = 0;          ///< sum of block index structures
  size_t store_bytes = 0;          ///< raw vectors + timestamps
  double cumulative_build_seconds = 0.0;
};

/// Per-query diagnostics.
struct MbiQueryStats {
  size_t blocks_searched = 0;      ///< graph blocks + exact-scanned leaves
  size_t graph_blocks = 0;
  size_t exact_blocks = 0;
  SearchStats search;
};

/// Per-thread scratch for queries. Create one per querying thread; reusing
/// it across queries avoids allocation on the hot path.
class QueryContext {
 public:
  explicit QueryContext(uint64_t seed = 0xC0FFEE) : rng_(seed) {}

  GraphSearcher* searcher() { return &searcher_; }
  Rng* rng() { return &rng_; }

 private:
  GraphSearcher searcher_;
  Rng rng_;
};

/// An immutable view of the block forest, swapped in atomically by the
/// writer after every merge cascade. Readers always see a consistent pair:
/// blocks covering exactly ids [0, covered_end) plus whatever tail of
/// committed vectors exists beyond it (exact-scanned at query time).
struct MbiSnapshot {
  /// Ids below this bound are covered by the full blocks in `blocks`.
  /// Always a multiple of leaf_size.
  int64_t covered_end = 0;

  /// Materialized full blocks in creation (postorder) order; entry i is the
  /// block with postorder index i in BlockTreeShape(covered_end, leaf_size).
  std::vector<std::shared_ptr<const BlockKnnIndex>> blocks;
};

/// A pinned read view: one snapshot plus the store size committed at acquire
/// time (num_vectors >= snapshot->covered_end always holds — the writer
/// commits vectors before publishing the blocks that cover them). Queries on
/// the same view return identical results regardless of concurrent writes.
struct ReadView {
  size_t num_vectors = 0;
  std::shared_ptr<const MbiSnapshot> snapshot;
};

/// Concurrency contract: one writer thread may call Add/AddBatch while any
/// number of reader threads call the const query methods (Search,
/// SearchView, SelectSearchBlocks, GetStats, ...). Readers never block the
/// writer and vice versa; each query pins a ReadView and sees the committed
/// prefix it describes. The writer side serializes on an internal mutex and
/// every writer-side field is MBI_GUARDED_BY it, so the contract is checked
/// at compile time under Clang -Wthread-safety. Checkpoint works off a
/// pinned ReadView and is safe during live ingest; Recover constructs a
/// fresh index and needs no synchronization.
class MbiIndex {
 public:
  /// Creates an empty index for `dim`-dimensional vectors under `metric`.
  /// Params must validate; construction aborts otherwise (programmer error).
  MbiIndex(size_t dim, Metric metric, const MbiParams& params);
  ~MbiIndex();

  MbiIndex(const MbiIndex&) = delete;
  MbiIndex& operator=(const MbiIndex&) = delete;

  /// Inserts one timestamped vector (Algorithm 3). Timestamps must be
  /// non-decreasing. When the insert completes a leaf, the merge cascade
  /// builds every finished block before returning.
  Status Add(const float* vector, Timestamp t) MBI_EXCLUDES(writer_mu_);

  /// Bulk-loads `count` vectors. With `defer_builds`, block construction is
  /// postponed until the end and all pending blocks are built concurrently
  /// on the worker pool — the paper's parallel construction mode.
  /// On a mid-batch failure the already-valid prefix stays committed;
  /// `rows_applied` (when non-null) receives the number of rows durably
  /// applied whether the batch succeeds or fails.
  Status AddBatch(const float* vectors, const Timestamp* timestamps,
                  size_t count, bool defer_builds = false,
                  size_t* rows_applied = nullptr) MBI_EXCLUDES(writer_mu_);

  /// Drains every deferred block build (see MbiParams::max_blocks_per_add).
  /// No-op when nothing is pending. Writer-only, like Add.
  void FinishPendingBuilds() MBI_EXCLUDES(writer_mu_);

  /// Deferred block builds currently queued (writer-side bookkeeping).
  size_t pending_builds() const MBI_EXCLUDES(writer_mu_) {
    MutexLock lock(writer_mu_);
    return pending_build_.size();
  }

  /// Answers a TkNN query (Algorithm 4): top-k vectors nearest to `query`
  /// with timestamp in `window`. `search` carries k, M_C and epsilon, and
  /// optionally a QueryBudget (deadline / work caps / cancellation): on
  /// exhaustion the result is a valid best-effort subset flagged kDegraded.
  /// `trace`, when non-null, is filled with a full EXPLAIN record (selection
  /// decisions, per-block counters, timings and budget spend) — see
  /// obs/trace.h.
  ///
  /// SearchView(AcquireReadView(), ...) with params().tau. For a one-off
  /// tau, call SearchView with it; for unrestricted kNN, pass
  /// TimeWindow::All(); for EXPLAIN, pass a trace and print
  /// trace->ToString().
  SearchResult Search(const float* query, const TimeWindow& window,
                      const SearchParams& search, QueryContext* ctx,
                      MbiQueryStats* stats = nullptr,
                      obs::QueryTrace* trace = nullptr) const;

  /// Search behind the admission controller: at most
  /// params().max_inflight_queries run concurrently; excess queries are shed
  /// with kResourceExhausted (message carries a retry-after hint) without
  /// touching the index. With max_inflight_queries == 0 this is Search with
  /// in-flight accounting only.
  Result<SearchResult> SearchAdmitted(const float* query,
                                      const TimeWindow& window,
                                      const SearchParams& search,
                                      QueryContext* ctx,
                                      MbiQueryStats* stats = nullptr,
                                      obs::QueryTrace* trace = nullptr) const;

  /// Queries currently inside SearchAdmitted / the maximum ever observed.
  size_t inflight_queries() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  size_t inflight_high_water() const {
    return inflight_high_water_.load(std::memory_order_relaxed);
  }

  /// Pins the current committed state for a sequence of consistent reads.
  /// Loads the snapshot first and the committed size second, so the size is
  /// always >= the snapshot's covered prefix.
  ReadView AcquireReadView() const;

  /// The one query body: Algorithm 4 against an explicitly pinned view,
  /// with block-selection threshold `tau`. Tau is a pure query-time
  /// parameter (the block structure is identical for every tau), so
  /// parameter studies like the paper's Figure 9 share one built index.
  /// Given the same view, the same query arguments and an equally seeded
  /// QueryContext, results are identical no matter what the writer does in
  /// the meantime — the basis of the concurrent/serial parity tests.
  SearchResult SearchView(const ReadView& view, const float* query,
                          const TimeWindow& window, const SearchParams& search,
                          double tau, QueryContext* ctx,
                          MbiQueryStats* stats = nullptr,
                          obs::QueryTrace* trace = nullptr) const;

  /// The search block set Algorithm 4 selects on `view` for the id range
  /// `range` (SearchView's planner, public for tests, benches and EXPLAIN-
  /// style debugging): tree selection over the view's covered prefix plus
  /// the committed tail [covered_end, num_vectors) as one graph-less
  /// pseudo-leaf. Selection happens in id space; map a window first with
  /// store().FindRangeInPrefix(window, view.num_vectors) (the paper's
  /// convention for duplicate timestamps, and the count-fraction overlap
  /// ratio Theorem 4.2 assumes). `steps`, when non-null, receives every
  /// visited node with its r_o and tau decision.
  std::vector<SelectedBlock> SelectSearchBlocks(
      const ReadView& view, const IdRange& range, double tau,
      std::vector<SelectionStep>* steps = nullptr) const;

  /// Tree shape for the current size.
  BlockTreeShape shape() const {
    return BlockTreeShape(static_cast<int64_t>(store_.size()),
                          params_.leaf_size);
  }

  const VectorStore& store() const { return store_; }
  const MbiParams& params() const { return params_; }
  size_t size() const { return store_.size(); }

  /// Number of materialized full blocks.
  size_t num_blocks() const MBI_EXCLUDES(writer_mu_) {
    MutexLock lock(writer_mu_);
    return blocks_.size();
  }

  /// The i-th block in creation (postorder) order. Blocks are individually
  /// immutable once built, so the reference stays valid after the internal
  /// lock is dropped.
  const BlockKnnIndex& block(size_t i) const MBI_EXCLUDES(writer_mu_) {
    MutexLock lock(writer_mu_);
    return *blocks_[i];
  }

  MbiStats GetStats() const;

  /// Incremental crash-safe checkpoint into directory `dir`, the only way
  /// to persist an index. Immutable per-leaf vector segments and per-block
  /// index segments are written once (atomically) and reused by later
  /// checkpoints; the committed tail beyond the covered prefix goes to an
  /// append-only CRC-framed log; a framed MANIFEST published by atomic
  /// rename commits the whole checkpoint. A crash at any byte leaves the
  /// directory recoverable to either the previous or the new checkpoint
  /// state. Safe during live ingest (works off a pinned ReadView). `fs`
  /// (POSIX when null) exists for fault-injection tests.
  ///
  /// Directory contract: `dir` must be absent, empty, or hold a checkpoint
  /// written by this index or by the index it was recovered from.
  /// Checkpoint never overwrites: a segment file already in `dir` is reused
  /// as it is, matched by file name only, so checkpointing into another
  /// index's directory returns OK and Recover then yields that other
  /// index's rows. To start over, empty `dir` first.
  Status Checkpoint(const std::string& dir,
                    persist::FileSystem* fs = nullptr) const;

  /// Rebuilds an index from a checkpoint directory: loads the manifest,
  /// segments and valid clean prefix of the tail log, then re-runs the merge
  /// cascades for the tail — deterministic builds make the result bit-exact
  /// with the pre-crash index. Corruption yields a clean non-OK Status.
  ///
  /// The manifest stores what defines the index: dim, metric, leaf_size,
  /// tau, block kind and build parameters. The settings of a running
  /// instance are not stored: adaptive_block_search, max_inflight_queries,
  /// shed_retry_after_seconds, max_blocks_per_add and num_threads come from
  /// `running` when it is given (its other fields are ignored), and are the
  /// defaults otherwise. They apply after the tail replay, which builds
  /// every block of its cascades on the calling thread.
  static Result<std::unique_ptr<MbiIndex>> Recover(
      const std::string& dir, persist::FileSystem* fs = nullptr,
      const MbiParams* running = nullptr);

 private:
  friend class MbiIo;  // serialization helper

  // Add body; the public entry point takes writer_mu_ and delegates here.
  Status AddLocked(const float* vector, Timestamp t) MBI_REQUIRES(writer_mu_);

  // Builds every materialized block whose creation index >= blocks_.size().
  void BuildPendingBlocks() MBI_REQUIRES(writer_mu_);

  // Builds the given nodes (creation order) and appends them to blocks_.
  void BuildNodes(const std::vector<TreeNode>& nodes)
      MBI_REQUIRES(writer_mu_);

  // Swaps in a fresh MbiSnapshot reflecting blocks_ (writer side), and
  // refreshes the process-wide index gauges.
  void PublishSnapshot() MBI_REQUIRES(writer_mu_);

  // Installs the block list read by MbiIo (Recover) and publishes the first
  // snapshot.
  void InstallBlocks(std::vector<std::shared_ptr<const BlockKnnIndex>> blocks)
      MBI_EXCLUDES(writer_mu_);

  MbiParams params_;
  VectorStore store_;

  // Serializes the writer side (Add/AddBatch/FinishPendingBuilds and the
  // MbiIo install path). Mutable so const accessors of writer-side
  // bookkeeping (num_blocks, pending_builds) can take it too.
  mutable Mutex writer_mu_;

  // Writer's working copy, in creation order. Blocks are append-only and
  // individually immutable once built; snapshots share ownership of them.
  std::vector<std::shared_ptr<const BlockKnnIndex>> blocks_
      MBI_GUARDED_BY(writer_mu_);

  // Builds deferred by the per-Add cap, in creation order (writer-only).
  std::deque<TreeNode> pending_build_ MBI_GUARDED_BY(writer_mu_);

  // Admission-control accounting (SearchAdmitted): lock-free atomics —
  // queries must never contend on a mutex just to be counted.
  mutable std::atomic<size_t> inflight_{0};
  mutable std::atomic<size_t> inflight_high_water_{0};

  // The published snapshot. Guarded by a mutex rather than
  // std::atomic<shared_ptr>: libstdc++'s _Sp_atomic unlocks its spinlock in
  // load() with a relaxed RMW, which leaves no formal happens-before edge to
  // the writer's pointer swap (TSan reports the race). The critical section
  // here is a single shared_ptr copy/swap, so contention is negligible.
  mutable Mutex snapshot_mu_;
  std::shared_ptr<const MbiSnapshot> snapshot_ MBI_GUARDED_BY(snapshot_mu_);

  std::unique_ptr<ThreadPool> pool_;                    // null when serial
  std::atomic<double> build_seconds_{0.0};  // atomic: GetStats may race Add

  // Last values this instance contributed to the process-wide
  // mbi_index_vectors / mbi_index_blocks gauges (delta-aggregated so
  // coexisting MbiIndex instances don't clobber each other).
  double gauge_vectors_ MBI_GUARDED_BY(writer_mu_) = 0.0;
  double gauge_blocks_ MBI_GUARDED_BY(writer_mu_) = 0.0;
};

}  // namespace mbi

#endif  // MBI_MBI_MBI_INDEX_H_
