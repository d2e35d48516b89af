// Declarative whole-stack scenario specs.
//
// A ScenarioSpec describes a burst workload against one live target — a
// single MbiIndex, or a ShardedMbi fleet when `sharded.shard_span` is set —
// as a sequence of phases: how many vectors arrive, how many queries ride
// along per arrival, the window-length / k / budget mix those queries draw
// from, which checkpoints happen mid-phase, where the target "crashes" and
// recovers, whether the phase deliberately rams the admission limit, and
// (sharded) whether one shard browns out. Everything is derived from a
// single seed through per-component SplitMix64 streams, so a scenario is a
// pure function of (spec, seed): the deterministic driver replays it
// bit-for-bit (tests/scenario_test.cc asserts identical event-log
// fingerprints across runs), and the concurrent driver reuses the same spec
// with real threads for TSan soak runs.
//
// Units prove each subsystem alone; scenarios prove ingest + queries +
// checkpoints + deadlines + overload + faults compose.

#ifndef MBI_SCENARIO_SCENARIO_H_
#define MBI_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/distance.h"
#include "mbi/mbi_index.h"
#include "shard/sharded_mbi.h"
#include "util/status.h"

namespace mbi::scenario {

/// The per-query draw distributions of one phase. Each query independently
/// draws one entry from each list (uniformly, from the phase's query RNG
/// stream).
struct QueryMix {
  /// Window lengths as fractions of the data currently committed; 1.0 = all
  /// time so far. Drawn windows are placed uniformly over the committed
  /// timestamp range.
  std::vector<double> window_fractions = {0.1, 0.5, 1.0};

  /// k values.
  std::vector<size_t> ks = {1, 10};

  /// Budget classes. <= 0 means unbounded. In deterministic mode a positive
  /// class d maps to a work cap of round(d * 1e6) distance evaluations (the
  /// deterministic analog of a d-second deadline at ~1M evals/s); in
  /// concurrent mode it is a real wall-clock deadline of d seconds.
  std::vector<double> budget_classes = {0.0};
};

/// One phase of arrival + query traffic.
struct PhaseSpec {
  std::string name;

  /// Vectors ingested during this phase. 0 makes a query-only phase.
  size_t adds = 0;

  /// Mean queries issued per arrival (fractional rates accumulate credit:
  /// 0.25 = one query every 4th add). The arrival:query ratio is the
  /// scenario's load knob — market-open means this jumps an order of
  /// magnitude.
  double queries_per_add = 1.0;

  /// Query-only phases: queries issued (per reader thread in concurrent
  /// mode).
  size_t epilogue_queries = 0;

  QueryMix mix;

  /// Checkpoints scheduled at evenly spaced add-offsets within the phase; a
  /// query-only phase takes them up front. A sharded target checkpoints
  /// every shard into its own directory.
  size_t checkpoints = 0;

  /// Arm a seed-derived FaultPlan (persist::FaultScheduleGenerator) before
  /// each scheduled checkpoint. Failed checkpoints must leave the previous
  /// one recoverable; the driver verifies that.
  bool inject_checkpoint_faults = false;

  /// MbiIndex target: kill the index at a seed-derived add-offset after the
  /// phase's first committed checkpoint, recover from the checkpoint
  /// directory, verify no acknowledged-durable write was lost, then resume
  /// the phase. ShardedMbi target (query-only phases): fault_shard "loses
  /// its machine" before the phase's queries, which degrade around the
  /// hole; after them it recovers its last checkpoint (same check) and the
  /// lost tail is backfilled.
  bool crash_and_recover = false;

  /// Concurrent mode only: reader threads issuing this phase's queries.
  size_t query_threads = 2;

  /// Concurrent mode only: > 0 ramps an extra burst of
  /// ceil(overload_factor * max_inflight_queries) admitted queries per
  /// scheduled burst point to exercise shedding. Requires the spec to set
  /// index.max_inflight_queries.
  double overload_factor = 0.0;

  /// Sharded target only: while the phase runs, probes of fault_shard gain
  /// brownout_delay_seconds of latency (simulated in deterministic mode)
  /// and shed with brownout_shed_prob; 1.0 blacks the shard out. Delay at
  /// or above the hedge delay makes hedges fire; sheds exercise backoff.
  double brownout_delay_seconds = 0.0;
  double brownout_shed_prob = 0.0;
};

/// End-of-run invariant thresholds. A scenario fails (driver returns a
/// violation list) when any bound is broken.
struct InvariantBounds {
  /// Minimum mean recall vs the exact oracle over the sampled unbounded
  /// queries (checked against the rows the query could see).
  double recall_floor = 0.85;

  /// p99 bound on observed_elapsed / deadline for deadline-bounded queries.
  /// Only checked in concurrent mode, and only when an injected distance
  /// delay makes per-unit work large enough that the ratio measures the
  /// library's polling granularity rather than scheduler noise.
  double p99_overshoot_factor = 5.0;

  /// Every Nth unbounded query is replayed against the exact oracle.
  size_t oracle_sample_every = 5;
};

/// A complete scenario: target configuration + data shape + phases + bounds.
struct ScenarioSpec {
  std::string name;
  uint64_t seed = 42;

  size_t dim = 12;
  Metric metric = Metric::kL2;

  /// Index parameters (leaf size, block kind, admission limit, ingest
  /// backpressure cap, worker threads, ...) of the MbiIndex, or of every
  /// shard of a sharded target.
  MbiParams index;

  /// shard_span > 0 runs the scenario against a ShardedMbi with these
  /// fan-out parameters, over shards configured by `index` (the `shard`
  /// member is not read), beside an exact single-store oracle.
  shard::ShardedMbiParams sharded;

  /// Sharded target: the shard brownouts and crashes hit.
  size_t fault_shard = 1;

  std::vector<PhaseSpec> phases;

  InvariantBounds bounds;

  bool is_sharded() const { return sharded.shard_span > 0; }

  /// Total vectors across all phases.
  size_t TotalAdds() const;

  /// Rejects nonsense (no phases, empty mixes, overload without an
  /// admission limit, zero dim, a fault shard beyond the fleet, ...).
  Status Validate() const;
};

/// Named per-component RNG streams, all derived from the scenario seed.
/// Adding a stream never perturbs the others — each is seeded by hashing
/// (seed, stream id), not by position in a shared sequence.
enum class SeedStream : uint64_t {
  kData = 1,       // synthetic vectors + timestamps
  kQueryPick = 2,  // query vector / window / k / budget draws
  kSchedule = 3,   // crash points, checkpoint jitter
  kFaults = 4,     // checkpoint fault schedules
  kThreads = 5,    // per-thread derived seeds (concurrent mode)
};

/// The sub-seed of `stream` (optionally salted, e.g. by thread id).
uint64_t DeriveSeed(uint64_t scenario_seed, SeedStream stream,
                    uint64_t salt = 0);

/// String-keyed sibling for open-ended component sets, where an enum per
/// component doesn't scale — e.g. DeriveSeed(seed, "shard/3") gives shard 3
/// its own fault schedule without touching any other shard's stream.
/// Thin alias of util/rng.h's DeriveSeedStream so scenario specs and
/// library code derive identical streams from identical keys.
uint64_t DeriveSeed(uint64_t scenario_seed, std::string_view name);

}  // namespace mbi::scenario

#endif  // MBI_SCENARIO_SCENARIO_H_
