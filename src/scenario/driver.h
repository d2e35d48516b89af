// The scenario driver: replays a ScenarioSpec against its target — one live
// MbiIndex, or a ShardedMbi fleet beside an exact single-store oracle — with
// one add loop, one query path and one set of invariant checks for both.
//
// Two run modes share one spec:
//
//   kDeterministic — a single thread interleaves writes, queries,
//     checkpoints, fault injection and crash/recovery in a seed-derived
//     order under a VirtualClock, logging every event. A scenario run is a
//     pure function of (spec, seed): run it twice, the event logs'
//     fingerprints match bit for bit. Budget classes map to work caps (the
//     deterministic analog of deadlines); a seed-derived slice of budgeted
//     queries instead carries an already-expired virtual-clock deadline to
//     exercise the deadline path deterministically. Sharded fan-out runs
//     at the spec's num_search_threads; injected probe delays are simulated
//     at every width, so every width logs the same events.
//
//   kConcurrent — a writer (the driver thread) races N reader threads
//     issuing admitted, deadline-bounded queries, a checkpointer thread
//     snapshotting mid-ingest, and optional overload bursts past the
//     admission limit; scripted MbiIndex crash points quiesce the threads,
//     kill the index, recover from the checkpoint directory and resume.
//     Sharded runs fan out on a pool of at least four threads under the
//     brownout's injected delays and sheds, and the fault shard's
//     checkpoint -> crash -> recover cycle races the readers of a
//     query-only phase. Per-result validity (I4) is checked
//     inline on every reader; aggregate invariants (recall floor, p99
//     overshoot, counter consistency, admission bound) at end of run. This
//     is the TSan soak target.
//
// Both modes enforce invariant I1 at every recovery: nothing a committed
// checkpoint acknowledged may be missing or differ bit-wise after Recover.

#ifndef MBI_SCENARIO_DRIVER_H_
#define MBI_SCENARIO_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/event_log.h"
#include "scenario/invariants.h"
#include "scenario/scenario.h"
#include "util/status.h"

namespace mbi::scenario {

enum class RunMode { kDeterministic, kConcurrent };

inline const char* RunModeName(RunMode m) {
  return m == RunMode::kDeterministic ? "deterministic" : "concurrent";
}

struct RunOptions {
  RunMode mode = RunMode::kDeterministic;

  /// Directory for checkpoint state. Empty = a unique directory under the
  /// system temp root, removed after the run.
  std::string work_dir;

  /// Concurrent mode: per-distance busy-wait (see budget_testing) making
  /// work expensive enough that deadline overshoot measures the library's
  /// polling granularity. Also gates the I3 check — without a delay the
  /// ratio mostly measures scheduler noise on loaded CI machines.
  int64_t injected_distance_delay_nanos = 0;
};

struct ScenarioStats {
  size_t add_ops = 0;         ///< Add calls acknowledged (incl. re-adds)
  size_t queries = 0;         ///< queries issued (incl. shed attempts)
  size_t complete = 0;
  size_t degraded = 0;
  size_t shed = 0;
  size_t checkpoints_committed = 0;
  size_t checkpoint_faults = 0;
  size_t crashes = 0;
  size_t recoveries = 0;
  size_t overload_bursts = 0;
  size_t final_size = 0;
  size_t final_blocks = 0;
  size_t inflight_high_water = 0;
  double recall_mean = 0.0;
  size_t recall_samples = 0;
  double p99_overshoot = 0.0;
  size_t overshoot_samples = 0;
  double wall_seconds = 0.0;  ///< physical, not logged (nondeterministic)

  // Sharded targets only:
  size_t hedges = 0;           ///< backup probes launched
  size_t shard_retries = 0;    ///< shed retries consumed across all probes
  size_t quarantines = 0;      ///< shards taken out of rotation
  size_t partial_results = 0;  ///< queries answered with < full shard coverage
};

struct ScenarioOutcome {
  std::string name;
  uint64_t seed = 0;
  RunMode mode = RunMode::kDeterministic;
  EventLog log;
  ScenarioStats stats;
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  std::string ViolationSummary() const;
};

/// Runs `spec` to completion. A non-OK status means the harness itself
/// could not run (bad spec, unusable work dir); invariant failures are
/// reported in the outcome's `violations`, not the status.
Result<ScenarioOutcome> RunScenario(const ScenarioSpec& spec,
                                    const RunOptions& options);

}  // namespace mbi::scenario

#endif  // MBI_SCENARIO_DRIVER_H_
