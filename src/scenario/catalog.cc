#include "scenario/catalog.h"

namespace mbi::scenario {
namespace {

// Base spec shared by every catalog entry: small leaves so even the short
// variants exercise multi-level block structure, and a recall floor lenient
// enough to hold across seeds (graph search on this synthetic data sits well
// above it; the floor catches wiring bugs, not tuning regressions).
ScenarioSpec BaseSpec(const std::string& name, uint64_t seed) {
  ScenarioSpec spec;
  spec.name = name;
  spec.seed = seed;
  spec.dim = 12;
  spec.index.leaf_size = 64;
  spec.index.num_threads = 1;
  spec.bounds.recall_floor = 0.70;
  spec.bounds.oracle_sample_every = 5;
  // Millisecond deadlines measured on loaded CI machines (and under TSan)
  // carry scheduler-descheduling tails of tens of ms; broken deadline
  // polling shows up as ratios in the hundreds, so a generous bound still
  // separates the two cleanly without flaking.
  spec.bounds.p99_overshoot_factor = 25.0;
  return spec;
}

size_t Scale(size_t short_adds, bool soak) {
  return soak ? short_adds * 10 : short_adds;
}

ScenarioSpec SteadyStateSoak(uint64_t seed, bool soak) {
  ScenarioSpec spec = BaseSpec("steady_state_soak", seed);
  for (int i = 0; i < 3; ++i) {
    PhaseSpec p;
    p.name = "steady_" + std::to_string(i);
    p.adds = Scale(260, soak);
    p.queries_per_add = 0.5;
    p.mix.window_fractions = {0.1, 0.5, 1.0};
    p.mix.ks = {1, 10};
    p.mix.budget_classes = {0.0, 0.002};
    p.checkpoints = 2;
    p.query_threads = soak ? 4 : 2;
    spec.phases.push_back(p);
  }
  return spec;
}

ScenarioSpec MarketOpenBurst(uint64_t seed, bool soak) {
  ScenarioSpec spec = BaseSpec("market_open_burst", seed);

  PhaseSpec preopen;
  preopen.name = "preopen";
  preopen.adds = Scale(200, soak);
  preopen.queries_per_add = 0.25;
  preopen.mix.window_fractions = {0.5, 1.0};
  preopen.mix.ks = {10};
  preopen.mix.budget_classes = {0.0};
  preopen.checkpoints = 1;
  spec.phases.push_back(preopen);

  // The open: query rate jumps an order of magnitude, windows shrink to the
  // most recent slice, and most queries carry a tight budget.
  PhaseSpec open;
  open.name = "open";
  open.adds = Scale(150, soak);
  open.queries_per_add = 3.0;
  open.mix.window_fractions = {0.05, 0.1};
  open.mix.ks = {1, 5};
  open.mix.budget_classes = {0.001, 0.002, 0.0};
  open.checkpoints = 1;
  open.query_threads = soak ? 4 : 2;
  spec.phases.push_back(open);

  PhaseSpec midday;
  midday.name = "midday";
  midday.adds = Scale(150, soak);
  midday.queries_per_add = 0.5;
  midday.mix.window_fractions = {0.2, 1.0};
  midday.mix.ks = {10};
  midday.mix.budget_classes = {0.0};
  midday.checkpoints = 1;
  spec.phases.push_back(midday);
  return spec;
}

ScenarioSpec CrashDuringCascade(uint64_t seed, bool soak) {
  ScenarioSpec spec = BaseSpec("crash_during_cascade", seed);
  // Tiny leaves + a one-build-per-add cap keep a merge cascade perpetually
  // in flight, so the scripted crash lands mid-cascade with deferred builds
  // pending — the hardest recovery shape.
  spec.index.leaf_size = 32;
  spec.index.max_blocks_per_add = 1;

  PhaseSpec ingest;
  ingest.name = "cascade_ingest";
  ingest.adds = Scale(300, soak);
  ingest.queries_per_add = 0.5;
  ingest.mix.window_fractions = {0.25, 1.0};
  ingest.mix.ks = {5};
  ingest.mix.budget_classes = {0.0};
  ingest.checkpoints = 3;
  ingest.inject_checkpoint_faults = true;
  ingest.crash_and_recover = true;
  spec.phases.push_back(ingest);

  PhaseSpec settle;
  settle.name = "settle";
  settle.adds = Scale(100, soak);
  settle.queries_per_add = 1.0;
  settle.mix.window_fractions = {1.0};
  settle.mix.ks = {10};
  settle.mix.budget_classes = {0.0};
  settle.checkpoints = 1;
  spec.phases.push_back(settle);
  return spec;
}

ScenarioSpec OverloadStorm(uint64_t seed, bool soak) {
  ScenarioSpec spec = BaseSpec("overload_storm", seed);
  spec.index.max_inflight_queries = 4;
  spec.index.shed_retry_after_seconds = 0.001;

  PhaseSpec storm;
  storm.name = "storm";
  storm.adds = Scale(300, soak);
  storm.queries_per_add = 1.0;
  storm.mix.window_fractions = {0.1, 1.0};
  storm.mix.ks = {10};
  storm.mix.budget_classes = {0.002, 0.005};
  storm.checkpoints = 1;
  storm.query_threads = soak ? 6 : 3;
  storm.overload_factor = 3.0;
  spec.phases.push_back(storm);
  return spec;
}

ScenarioSpec RecoverThenRequery(uint64_t seed, bool soak) {
  ScenarioSpec spec = BaseSpec("recover_then_requery", seed);

  PhaseSpec ingest;
  ingest.name = "crashy_ingest";
  ingest.adds = Scale(400, soak);
  ingest.queries_per_add = 0.1;
  ingest.mix.window_fractions = {0.5};
  ingest.mix.ks = {5};
  ingest.mix.budget_classes = {0.0};
  ingest.checkpoints = 4;
  ingest.crash_and_recover = true;
  spec.phases.push_back(ingest);

  // Query-only epilogue (a handful of trailing adds keep the driver's
  // query-credit machinery running): full-history windows at full k, all
  // unbounded, sampled hard against the oracle — the recovered index must
  // answer as well as a never-crashed one.
  PhaseSpec requery;
  requery.name = "requery";
  requery.adds = Scale(50, soak);
  requery.queries_per_add = 4.0;
  requery.mix.window_fractions = {1.0};
  requery.mix.ks = {10};
  requery.mix.budget_classes = {0.0};
  requery.checkpoints = 1;
  spec.phases.push_back(requery);
  spec.bounds.oracle_sample_every = 3;
  return spec;
}

// Sharded base: four time shards of flat blocks (exact scans), so the
// shard-oracle-match invariant compares exact against exact. Soak variants
// ingest 4x the rows.
ScenarioSpec BaseShardSpec(const std::string& name, uint64_t seed) {
  ScenarioSpec spec;
  spec.name = name;
  spec.seed = seed;
  spec.dim = 8;
  spec.index.leaf_size = 32;
  spec.index.block_kind = BlockIndexKind::kFlat;
  spec.sharded.enable_hedging = true;
  // Concurrent runs sleep injected delays for real: keep them short but
  // past the hedge threshold.
  spec.sharded.hedge_delay_seconds = 0.002;
  spec.sharded.backoff.max_retries = 2;
  spec.sharded.backoff.initial_seconds = 0.0005;
  spec.sharded.backoff.max_seconds = 0.004;
  spec.sharded.min_result_coverage = 0.0;  // always prefer partial results
  spec.fault_shard = 1;
  spec.bounds.recall_floor = 0.70;
  spec.bounds.oracle_sample_every = 3;
  return spec;
}

PhaseSpec ShardPhase(const std::string& name, size_t adds, bool soak) {
  PhaseSpec p;
  p.name = name;
  p.adds = soak ? adds * 4 : adds;
  p.queries_per_add = 0.5;
  p.mix.window_fractions = {0.25, 1.0};
  p.mix.ks = {1, 10};
  p.mix.budget_classes = {0.0};
  p.query_threads = soak ? 6 : 3;
  return p;
}

// A query-only phase; concurrent readers bound half their queries by a
// deadline.
PhaseSpec ShardEpilogue(const std::string& name, bool soak) {
  PhaseSpec p = ShardPhase(name, 0, soak);
  p.epilogue_queries = soak ? 120 : 40;
  p.mix.budget_classes = {0.0, 0.25};
  return p;
}

void SetBrownout(PhaseSpec* p, double shed_prob) {
  p->brownout_delay_seconds = 0.004;  // >= the hedge delay: hedges fire
  p->brownout_shed_prob = shed_prob;
}

ScenarioSpec ShardBrownout(uint64_t seed, bool soak) {
  ScenarioSpec spec = BaseShardSpec("shard_brownout", seed);
  spec.sharded.shard_span = soak ? 400 : 100;
  spec.phases.push_back(ShardPhase("calm", 120, soak));
  PhaseSpec brownout = ShardPhase("brownout", 60, soak);
  SetBrownout(&brownout, 0.45);
  spec.phases.push_back(brownout);
  PhaseSpec blackout = ShardPhase("blackout", 40, soak);
  SetBrownout(&blackout, 1.0);
  spec.phases.push_back(blackout);
  brownout.name = "brownout_tail";
  spec.phases.push_back(brownout);
  spec.phases.push_back(ShardPhase("clear", 120, soak));
  // The fault shard is checkpointed and taken out of rotation under the
  // brownout; queries degrade around it until it recovers.
  PhaseSpec quarantine = ShardEpilogue("quarantine", soak);
  SetBrownout(&quarantine, 0.45);
  quarantine.checkpoints = 1;
  quarantine.crash_and_recover = true;
  spec.phases.push_back(quarantine);
  spec.phases.push_back(ShardEpilogue("requery", soak));
  return spec;
}

ScenarioSpec ShardCrashRequery(uint64_t seed, bool soak) {
  ScenarioSpec spec = BaseShardSpec("shard_crash_requery", seed);
  spec.sharded.shard_span = soak ? 400 : 100;
  // Flaky-disk checkpoints while shard 0 fills.
  PhaseSpec fill = ShardPhase("fill", 100, soak);
  fill.checkpoints = 2;
  fill.inject_checkpoint_faults = true;
  spec.phases.push_back(fill);
  // One clean checkpoint half way through the fault shard: its second half
  // is the tail the crash loses.
  PhaseSpec midfill = ShardPhase("midfill", 100, soak);
  midfill.checkpoints = 1;
  spec.phases.push_back(midfill);
  spec.phases.push_back(ShardPhase("tail", 200, soak));
  PhaseSpec lost = ShardEpilogue("machine_loss", soak);
  lost.crash_and_recover = true;
  spec.phases.push_back(lost);
  spec.phases.push_back(ShardEpilogue("requery", soak));
  return spec;
}

}  // namespace

std::vector<std::string> CatalogNames() {
  return {"steady_state_soak",    "market_open_burst", "crash_during_cascade",
          "overload_storm",       "recover_then_requery", "shard_brownout",
          "shard_crash_requery"};
}

Result<ScenarioSpec> GetScenario(const std::string& name, uint64_t seed,
                                 bool soak) {
  if (name == "steady_state_soak") return SteadyStateSoak(seed, soak);
  if (name == "market_open_burst") return MarketOpenBurst(seed, soak);
  if (name == "crash_during_cascade") return CrashDuringCascade(seed, soak);
  if (name == "overload_storm") return OverloadStorm(seed, soak);
  if (name == "recover_then_requery") return RecoverThenRequery(seed, soak);
  if (name == "shard_brownout") return ShardBrownout(seed, soak);
  if (name == "shard_crash_requery") return ShardCrashRequery(seed, soak);
  return Status::NotFound("no scenario named '" + name +
                          "' in the catalog (see --list)");
}

}  // namespace mbi::scenario
