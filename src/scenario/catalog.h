// The canonical scenario catalog.
//
// Seven named scenarios cover the interaction surface the units cannot.
// Five run against one MbiIndex:
//
//   steady_state_soak    uniform ingest + mixed queries + periodic
//                        checkpoints; the long-haul baseline
//   market_open_burst    quiet pre-open, then a 10x query burst of short
//                        windows under tight deadlines, then normal load
//   crash_during_cascade tiny leaves + ingest backpressure so merge
//                        cascades are always in flight, checkpoint faults
//                        injected, a scripted crash mid-phase
//   overload_storm       a small admission limit rammed by deadline-bounded
//                        query bursts well past capacity
//   recover_then_requery crash-heavy ingest, then a query-only epilogue
//                        proving the recovered index still answers well
//
// Two run against a four-shard ShardedMbi of flat (exact) blocks:
//
//   shard_brownout       one shard turns slow and sheddy mid-ingest (hedges
//                        and backoff absorb it), then black for a slice
//                        (partial results), then it is quarantined and
//                        revived under queries, and the fleet requeried
//   shard_crash_requery  fault-injected checkpoints while shard 0 fills, a
//                        clean one half way through shard 1, then shard 1
//                        loses its machine: queries degrade around the
//                        hole, recovery restores the checkpointed prefix,
//                        the lost tail is backfilled, the fleet requeried
//
// Every scenario has a short variant (tier-1 tests, seconds) and a soak
// variant (~10x the adds for one index, 4x for a fleet, more reader
// threads; CI runs it under TSan behind MBI_SOAK=1).

#ifndef MBI_SCENARIO_CATALOG_H_
#define MBI_SCENARIO_CATALOG_H_

#include <string>
#include <vector>

#include "scenario/scenario.h"
#include "util/status.h"

namespace mbi::scenario {

/// Names of the canonical scenarios, in catalog order.
std::vector<std::string> CatalogNames();

/// The named scenario with the given seed; `soak` selects the long variant.
/// NotFound for names outside the catalog.
Result<ScenarioSpec> GetScenario(const std::string& name, uint64_t seed,
                                 bool soak = false);

}  // namespace mbi::scenario

#endif  // MBI_SCENARIO_CATALOG_H_
