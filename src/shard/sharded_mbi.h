// ShardedMbi — fault-isolated scatter-gather over time-range-sharded MBIs.
//
// One MbiIndex is one writer and one machine's RAM. ShardedMbi is the
// serving topology above it: N MbiIndex shards, each owning a contiguous
// span of the time axis (shard i serves timestamps
// [i*shard_span, (i+1)*shard_span)), behind a query planner that prunes
// shards by window overlap before fan-out — Algorithm 4's overlap pruning
// lifted one level, as in Timehash's hierarchical time tiers (PAPERS.md).
//
// Robustness is the point of the layer. Each shard is a fault domain:
//
//   Quarantine        — a shard whose probe or persistence layer reports
//                       kDataLoss/kUnavailable is taken out of rotation, not
//                       allowed to fail the query path. RecoverShard revives
//                       it.
//   Hedged retries    — a straggling shard gets a backup probe after
//                       hedge_delay_seconds; first response wins and the
//                       merge suppresses duplicate ids, so hedging can only
//                       reduce latency, never corrupt results.
//   Bounded backoff   — transient kResourceExhausted sheds (per-shard
//                       admission control) are retried up to
//                       backoff.max_retries times with exponential backoff,
//                       honoring the shard's structured retry-after hint
//                       (Status::retry_after_seconds()).
//   Partial results   — a query that reaches only 7 of 8 shards returns the
//                       7-shard merge flagged kDegraded/kShardUnavailable
//                       with per-shard accounting (SearchResult::shards_ok /
//                       shards_total); degraded-but-never-invalid. Callers
//                       that prefer failure over low coverage set
//                       min_result_coverage.
//
// Timestamps arrive in non-decreasing order (the library-wide contract), so
// shards fill strictly left to right and every shard owns a contiguous
// global-id range: global id = shard base + local id, identical to the ids a
// single MbiIndex over the same rows would assign. That identity is load-
// bearing: the scenario harness bit-matches ShardedMbi merges against a
// single-index oracle whenever all shards are healthy.
//
// Concurrency contract: one writer thread (Add/AddBatch/AppendToShard /
// CheckpointShard / RecoverShard) against any number of Search threads,
// mirroring MbiIndex. Every query runs one fan-out body per shard, with
// injected delays and backoff simulated, never slept; num_search_threads
// >= 2 only spreads those bodies over an internal pool, so every thread
// count gives the same answers, hedges, retries and traces. Search returns
// after all of its probes have finished; a probe pins its shard by
// shared_ptr, so a concurrent RecoverShard swap is invisible to it.

#ifndef MBI_SHARD_SHARDED_MBI_H_
#define MBI_SHARD_SHARDED_MBI_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/time_window.h"
#include "core/types.h"
#include "graph/search.h"
#include "mbi/mbi_index.h"
#include "util/backoff.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mbi {

class ThreadPool;

namespace shard {

/// Configuration of the sharded serving layer.
struct ShardedMbiParams {
  /// Time-axis span owned by each shard: shard i serves timestamps
  /// [i*shard_span, (i+1)*shard_span). Required, > 0.
  int64_t shard_span = 0;

  /// Hard cap on the number of shards (0 = unbounded). Adds beyond the cap
  /// fail with kOutOfRange instead of allocating unbounded shards.
  size_t max_shards = 0;

  /// Parameters applied to every shard's MbiIndex.
  MbiParams shard;

  /// Fan-out width: >= 2 probes shards on an internal pool of this many
  /// threads, with the caller probing one shard itself; 0/1 probes them one
  /// after another on the caller's thread. Only the speed differs: answers,
  /// hedges, retries and traces are the same at every width.
  size_t num_search_threads = 0;

  /// Hedged retries: when a shard's probe has not resolved after
  /// hedge_delay_seconds, launch one backup probe and take the first
  /// response. Duplicate ids across the two probes are suppressed at merge.
  /// +infinity never hedges.
  double hedge_delay_seconds = 0.010;

  /// Retry schedule for transient kResourceExhausted sheds; the structured
  /// retry-after hint on the shed Status floors each delay.
  BackoffPolicy backoff;

  /// Minimum fraction of selected shards that must answer. At or above the
  /// threshold a short-handed merge is returned as kDegraded; below it the
  /// query fails with kUnavailable. 0 = always prefer partial results.
  double min_result_coverage = 0.0;

  Status Validate() const;
};

/// The outcome a fault injector imposes on one shard probe. A default value
/// is a healthy, instant probe.
struct ShardProbeFault {
  Status status;               ///< non-OK: the probe fails with this status
  double delay_seconds = 0.0;  ///< added probe latency, simulated: it counts
                               ///< toward hedging and the trace but is never
                               ///< slept
};

/// Hedge probes report attempt numbers starting here; primary-chain
/// attempts count 0, 1, ... so injectors can distinguish the two chains.
inline constexpr uint32_t kHedgeAttemptBase = 100;

/// Test/scenario seam: consulted before every shard probe. Implementations
/// must be thread-safe (pooled fan-out probes from pool workers). One shard's
/// probes of one query are consulted in order, primary chain then hedge.
class ShardFaultInjector {
 public:
  virtual ~ShardFaultInjector() = default;
  virtual ShardProbeFault OnProbe(size_t shard_index, uint32_t attempt) = 0;
};

/// EXPLAIN record of one sharded query's fan-out.
struct ShardQueryTrace {
  struct Probe {
    size_t shard_index = 0;
    uint32_t attempts = 0;       ///< probes issued across both chains
    uint32_t retries = 0;        ///< shed retries consumed
    bool hedged = false;         ///< a backup probe was launched
    bool ok = false;             ///< the shard contributed to the merge
    bool quarantined = false;    ///< skipped: shard was out of rotation
    double latency_seconds = 0.0;  ///< winning-chain latency: simulated
                                   ///< injected delays and backoff
    std::string error;           ///< final status when !ok
  };

  size_t shards_selected = 0;  ///< fan-out width after window pruning
  size_t shards_pruned = 0;    ///< shards skipped by the planner (no window
                               ///< overlap, or empty)
  size_t shards_ok = 0;
  size_t hedges_fired = 0;
  size_t retries_total = 0;
  std::vector<Probe> probes;

  /// Human-readable EXPLAIN, one line per probed shard.
  std::string ToString() const;
};

/// Dedup k-way merge of per-shard results: the k nearest neighbors of the
/// union of `parts`, with duplicate ids (hedged probes of the same shard)
/// suppressed — first occurrence wins. Comparison is Neighbor::operator<
/// (distance then id), correct for every metric including kInnerProduct's
/// negative distances. Only neighbor lists are merged; completion flags are
/// the caller's to derive. k == 0 returns an empty result.
SearchResult MergeShardResults(size_t k,
                               const std::vector<const SearchResult*>& parts);

class ShardedMbi {
 public:
  /// Creates an empty sharded index for `dim`-dimensional vectors under
  /// `metric`. Params must validate; construction aborts otherwise
  /// (programmer error, mirroring MbiIndex).
  ShardedMbi(size_t dim, Metric metric, const ShardedMbiParams& params);
  ~ShardedMbi();

  ShardedMbi(const ShardedMbi&) = delete;
  ShardedMbi& operator=(const ShardedMbi&) = delete;

  /// Routes one timestamped vector to its shard, creating shards on demand.
  /// Timestamps must be >= 0 and non-decreasing across the whole sharded
  /// index — the invariant that makes global ids (shard base + local id)
  /// bit-compatible with a single index over the same rows.
  Status Add(const float* vector, Timestamp t) MBI_EXCLUDES(mu_);

  /// Bulk Add. On a mid-batch failure the already-applied prefix stays;
  /// `rows_applied` (when non-null) receives the applied count either way.
  Status AddBatch(const float* vectors, const Timestamp* timestamps,
                  size_t count, size_t* rows_applied = nullptr)
      MBI_EXCLUDES(mu_);

  /// Scatter-gather TkNN: prunes shards by window overlap, probes the
  /// survivors (in turn or on the pool) with per-shard child budgets
  /// sliced from search.budget, and k-way-merges with duplicate
  /// suppression. Errors only on invalid input or when coverage falls
  /// below min_result_coverage; shard faults otherwise degrade the result,
  /// never fail it. `trace`, when non-null, receives the fan-out EXPLAIN
  /// record (print it with ToString()), also when coverage falls below
  /// min_result_coverage.
  Result<SearchResult> Search(const float* query, const TimeWindow& window,
                              const SearchParams& search, QueryContext* ctx,
                              ShardQueryTrace* trace = nullptr) const
      MBI_EXCLUDES(mu_);

  size_t dim() const { return dim_; }
  Metric metric() const { return metric_; }
  const ShardedMbiParams& params() const { return params_; }

  size_t num_shards() const MBI_EXCLUDES(mu_);

  /// Total rows across shards (live sum: a crashed-and-not-yet-backfilled
  /// shard lowers it until repair completes).
  size_t size() const MBI_EXCLUDES(mu_);

  /// The time span shard i owns, saturated at INT64_MAX: with spans near
  /// 2^62 the far edge of the last shard lies past the int64 range.
  TimeWindow ShardWindow(size_t i) const {
    const int64_t span = params_.shard_span;
    const int64_t max = std::numeric_limits<int64_t>::max();
    const int64_t lo = i > static_cast<uint64_t>(max / span)
                           ? max
                           : static_cast<int64_t>(i) * span;
    return TimeWindow{lo, lo > max - span ? max : lo + span};
  }

  /// Global id of shard i's first row.
  Result<int64_t> shard_base(size_t i) const MBI_EXCLUDES(mu_);

  /// Shard i's index, pinned (stays valid across a concurrent RecoverShard
  /// swap). Read-only access for tests and benches.
  Result<std::shared_ptr<const MbiIndex>> shard(size_t i) const
      MBI_EXCLUDES(mu_);

  bool shard_healthy(size_t i) const MBI_EXCLUDES(mu_);

  /// The quarantining status of shard i (OK when healthy).
  Status shard_status(size_t i) const MBI_EXCLUDES(mu_);

  /// Takes shard i out of query rotation with `why` as its status. Queries
  /// selecting it degrade instead of probing it. Ops/test seam; the organic
  /// paths are probe faults and persistence errors.
  Status QuarantineShard(size_t i, Status why) MBI_EXCLUDES(mu_);

  /// Crash-safe checkpoint of one shard (MbiIndex::Checkpoint into `dir`).
  /// A kDataLoss/kUnavailable failure quarantines the shard.
  Status CheckpointShard(size_t i, const std::string& dir,
                         persist::FileSystem* fs = nullptr) const
      MBI_EXCLUDES(mu_);

  /// Replaces shard i with the state recovered from `dir` and returns it to
  /// rotation. The revived shard runs with params().shard's admission
  /// limit, shed hint, ingest cap, threads and adaptive policy, which
  /// MbiIndex::Recover takes from its caller. On failure the shard is
  /// quarantined with the recovery error (kDataLoss/kUnavailable) so
  /// queries degrade around it; a later retry with a healthy directory
  /// revives it. In-flight probes of the old index finish safely against
  /// their pinned instance.
  Status RecoverShard(size_t i, const std::string& dir,
                      persist::FileSystem* fs = nullptr) MBI_EXCLUDES(mu_);

  /// Repair backfill: appends directly to shard i (timestamp must fall in
  /// ShardWindow(i)), re-adding rows a recovery lost. Must complete before
  /// Add creates any later shard — shard bases are assigned at creation
  /// from the live row count, so a shard must be whole when its successor
  /// is born.
  Status AppendToShard(size_t i, const float* vector, Timestamp t)
      MBI_EXCLUDES(mu_);

  /// Installs (or clears, with nullptr) the probe fault injector.
  void SetFaultInjectorForTesting(std::shared_ptr<ShardFaultInjector> injector)
      MBI_EXCLUDES(mu_);

 private:
  struct ShardEntry {
    std::shared_ptr<MbiIndex> index;
    int64_t base = 0;       // global id of the shard's first row
    bool healthy = true;
    Status fault;           // why the shard is quarantined (OK if healthy)
  };

  /// A shard pinned for the duration of one query.
  struct ShardRef {
    size_t shard_index = 0;
    std::shared_ptr<MbiIndex> index;
    int64_t base = 0;
    bool healthy = true;
    Status fault;
  };

  /// One probe's outcome: a (global-id) result or a failure, plus the
  /// simulated latency the injector imposed.
  struct ProbeOutcome {
    Status status;
    SearchResult result;
    double injected_seconds = 0.0;
  };

  /// One chain = primary or hedge attempt sequence including shed retries.
  struct ChainOutcome {
    bool ok = false;
    SearchResult result;
    Status final_status;
    uint32_t attempts = 0;
    uint32_t retries = 0;
    double simulated_seconds = 0.0;  // injected delays + backoff waits
  };

  struct GatherSlot;

  ProbeOutcome ProbeOnce(const ShardRef& ref, const float* query,
                         const TimeWindow& window, const SearchParams& search,
                         uint64_t query_seed, uint32_t attempt,
                         const std::shared_ptr<ShardFaultInjector>& injector)
      const;

  ChainOutcome RunChain(const ShardRef& ref, const float* query,
                        const TimeWindow& window, const SearchParams& search,
                        uint64_t query_seed, uint32_t attempt_base,
                        const std::shared_ptr<ShardFaultInjector>& injector)
      const;

  void QuarantineOnFault(size_t shard_index, const Status& status) const
      MBI_EXCLUDES(mu_);

  /// One shard's fan-out body, on the caller's thread or a pool worker:
  /// the primary chain, a hedge chain when the primary's simulated latency
  /// reaches hedge_delay_seconds, then the fold into `slot`.
  void Gather(const ShardRef& ref, const float* query,
              const TimeWindow& window, const SearchParams& search,
              uint64_t query_seed,
              const std::shared_ptr<ShardFaultInjector>& injector,
              GatherSlot* slot) const;

  const size_t dim_;
  const Metric metric_;
  const ShardedMbiParams params_;

  mutable Mutex mu_;
  // Mutable: quarantine happens on the (const) query path when a probe
  // reports kDataLoss/kUnavailable.
  mutable std::vector<ShardEntry> entries_ MBI_GUARDED_BY(mu_);
  Timestamp last_t_ MBI_GUARDED_BY(mu_) = -1;
  std::shared_ptr<ShardFaultInjector> injector_ MBI_GUARDED_BY(mu_);

  // Null below two search threads. No probe outlives its query, so the
  // pool is idle whenever no Search is running.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace shard
}  // namespace mbi

#endif  // MBI_SHARD_SHARDED_MBI_H_
