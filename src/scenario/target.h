// The scenario driver's target seam (harness-internal).
//
// driver.cc owns everything a scenario run does the same way whatever it
// runs against: data and query pools, the work directory, the add loop and
// query draws, result hashing and kQuery logging, I4 validity, oracle recall
// sampling, reader threads and the end-of-run I2/I3/I5/I6 checks. A Target
// is the system under test behind that loop, with two implementations
// (targets.cc):
//
//   MbiIndex   one index: admission-controlled queries in concurrent mode,
//              crash = process death, repair = Recover from the checkpoint
//              directory (the add loop then re-ingests the lost tail).
//   ShardedMbi a fleet beside an exact single-store oracle over the same
//              rows, a brownout injector on the fault shard, fan-out trace
//              meta in the event log, I7 and I8 per query, crash = machine
//              loss (quarantine), repair = RecoverShard plus backfill.

#ifndef MBI_SCENARIO_TARGET_H_
#define MBI_SCENARIO_TARGET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/time_window.h"
#include "core/types.h"
#include "core/vector_store.h"
#include "data/synthetic.h"
#include "graph/search.h"
#include "mbi/mbi_index.h"
#include "persist/file.h"
#include "scenario/driver.h"
#include "scenario/event_log.h"
#include "scenario/invariants.h"
#include "scenario/scenario.h"
#include "util/status.h"

namespace mbi::scenario {

/// One query's drawn parameters.
struct QueryDraw {
  const float* vector = nullptr;
  TimeWindow window;
  size_t k = 10;
  double budget_class = 0.0;
  uint64_t ctx_seed = 0;
};

/// One query's answer plus what the driver needs to check and log it.
struct Answer {
  Status status;  ///< kResourceExhausted = shed; any other error is a bug
  SearchResult result;
  /// The ingested rows the answer is checked against (I4, I2), and how many
  /// of them the query could have seen — read after it returned, so the
  /// view it pinned is a prefix.
  const VectorStore* rows = nullptr;
  size_t view = 0;
  uint64_t meta = 0;  ///< kQuery payload c
  size_t hedges = 0;
  size_t retries = 0;
  std::vector<Violation> problems;  ///< the target's own per-query checks
};

/// Query-outcome tallies: the driver's own, or one reader thread's (merged
/// after the pool joins, so the readers stay lock-free).
struct Tally {
  size_t issued = 0;  ///< attempts, including shed ones
  size_t shed = 0;
  size_t degraded = 0;
  size_t complete = 0;
  size_t hedges = 0;
  size_t retries = 0;
  size_t partial = 0;
  MeanSink recall;
  PercentileSink overshoot;
  std::vector<Violation> violations;  ///< readers only

  void MergeFrom(const Tally& other);
};

/// An obs counter I5 reconciles, and how often the driver saw its outcome.
struct CounterCheck {
  const char* name;
  uint64_t expected;
};

/// The run state the driver shares with its target.
struct RunContext {
  RunContext(const ScenarioSpec& s, const RunOptions& o) : spec(s), opts(o) {}

  const ScenarioSpec& spec;
  const RunOptions& opts;
  std::string work_dir;
  SyntheticData data;  ///< every row the scenario ingests, in order
  ScenarioOutcome outcome;
  uint32_t phase = 0;  ///< the running phase, for event payloads

  bool concurrent() const { return opts.mode == RunMode::kConcurrent; }

  /// Records a broken invariant and logs it.
  void AddViolation(InvariantId id, std::string detail);
  void PassInvariant(InvariantId id);

  /// I1 after a recovery: `store` (global ids from `base`) holds at least
  /// the `acked` rows a committed checkpoint acknowledged, and every row it
  /// holds is bit-identical to the ingested one. Logs a pass when so.
  void CheckRecovered(const VectorStore& store, size_t base, size_t acked);
};

class Target {
 public:
  virtual ~Target() = default;

  /// Rows ingested so far (what query windows are drawn over).
  virtual size_t size() const = 0;
  virtual Status Add(const float* vector, Timestamp t) = 0;

  /// Runs one query; in concurrent mode through admission control.
  virtual Answer Search(const QueryDraw& q, const SearchParams& search,
                        QueryContext* ctx) = 0;

  /// Applies the phase's fault settings before its traffic starts.
  virtual void BeginPhase(const PhaseSpec& p) = 0;

  /// One scheduled checkpoint through `fs` (POSIX when null). May run on a
  /// checkpointer thread concurrently with Add and Search.
  virtual void Checkpoint(persist::FileSystem* fs, EventLog* log) = 0;

  /// Crash loses what was not durable; Repair brings the target back from
  /// its last checkpoint and checks I1.
  virtual void Crash() = 0;
  virtual void Repair() = 0;

  /// I5: the counters this target's queries move; empty when the deltas
  /// cannot be exact.
  virtual std::vector<CounterCheck> Counters(const Tally& t) const = 0;

  /// I6: the admission high water across every incarnation.
  virtual size_t InflightHighWater() const = 0;

  /// Settles background work and fills the final size/blocks stats.
  virtual void Finish(ScenarioStats* stats) = 0;
};

std::unique_ptr<Target> MakeMbiTarget(RunContext* run);
std::unique_ptr<Target> MakeShardedTarget(RunContext* run);

/// Content hash of a result list: neighbor ids and the raw bit patterns of
/// their distances. Two results hash equal iff they are bit-identical.
uint64_t HashResult(const SearchResult& result);

/// kQuery payload c: completion | k<<8 | results<<24.
uint64_t PackQueryMeta(const SearchResult& result, size_t k);

}  // namespace mbi::scenario

#endif  // MBI_SCENARIO_TARGET_H_
