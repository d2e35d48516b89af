// The sharded catalog scenarios through the one scenario driver: spec
// sanity, deterministic replay bit-identity (event-log fingerprints), the
// brownout and crash/requery flight plans with their invariants (I7
// shard-oracle-match, I8 shard-retry-budget, I1, I4), and short concurrent
// runs (TSan target — scripts/sanitize_smoke.sh --tsan shard_scenario_test).
//
// MBI_SOAK=1 additionally runs the soak variants in concurrent mode (the CI
// scenario-soak job sets it).

#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/catalog.h"
#include "scenario/driver.h"
#include "scenario/event_log.h"
#include "scenario/invariants.h"
#include "scenario/scenario.h"

namespace mbi::scenario {
namespace {

const std::vector<std::string> kShardScenarios = {"shard_brownout",
                                                  "shard_crash_requery"};

ScenarioSpec MustGet(const std::string& name, uint64_t seed,
                     bool soak = false) {
  Result<ScenarioSpec> spec = GetScenario(name, seed, soak);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(spec).value();
}

ScenarioOutcome MustRun(const ScenarioSpec& spec, const RunOptions& opts) {
  Result<ScenarioOutcome> run = RunScenario(spec, opts);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return std::move(run).value();
}

// ------------------------------------------------------------- catalog --

TEST(ShardCatalog, SpecsAreShardedAndExact) {
  for (const std::string& name : kShardScenarios) {
    for (bool soak : {false, true}) {
      const ScenarioSpec spec = MustGet(name, 7, soak);
      EXPECT_TRUE(spec.Validate().ok()) << name;
      EXPECT_TRUE(spec.is_sharded()) << name;
      // Flat (exact) shards: the oracle-match invariant compares exact
      // against exact.
      EXPECT_EQ(spec.index.block_kind, BlockIndexKind::kFlat);
      EXPECT_EQ(spec.sharded.min_result_coverage, 0.0);
    }
  }
}

TEST(ShardScenarioSpecValidate, RejectsNonsense) {
  const ScenarioSpec spec = MustGet("shard_brownout", 7);
  ScenarioSpec bad = spec;
  bad.fault_shard = 99;
  EXPECT_FALSE(bad.Validate().ok());

  bad = spec;
  bad.phases[1].brownout_shed_prob = 1.5;
  EXPECT_FALSE(bad.Validate().ok());

  // A shard crashes across a query-only phase, never mid-ingest.
  bad = spec;
  bad.phases.back().crash_and_recover = true;
  EXPECT_TRUE(bad.Validate().ok());
  bad.phases[0].checkpoints = 1;
  bad.phases[0].crash_and_recover = true;
  EXPECT_FALSE(bad.Validate().ok());

  // Brownouts and overload bursts belong to their own targets.
  bad = MustGet("steady_state_soak", 7);
  bad.phases[0].brownout_delay_seconds = 0.01;
  EXPECT_FALSE(bad.Validate().ok());
  bad = spec;
  bad.index.max_inflight_queries = 4;
  bad.phases[0].overload_factor = 2.0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = spec;
  bad.phases[0].epilogue_queries = 5;  // the phase ingests
  EXPECT_FALSE(bad.Validate().ok());
}

// ------------------------------------------------ deterministic replay --

TEST(ShardScenarioReplay, BrownoutFingerprintIsBitStable) {
  const ScenarioSpec spec = MustGet("shard_brownout", 21);
  RunOptions opts;
  opts.mode = RunMode::kDeterministic;
  const ScenarioOutcome a = MustRun(spec, opts);
  const ScenarioOutcome b = MustRun(spec, opts);
  EXPECT_EQ(a.log.Fingerprint(), b.log.Fingerprint())
      << "first divergence:\n"
      << a.log.ToString().substr(0, 2000);
  EXPECT_TRUE(a.ok()) << a.ViolationSummary();

  // A different seed is a different run.
  const ScenarioOutcome c = MustRun(MustGet("shard_brownout", 22), opts);
  EXPECT_NE(a.log.Fingerprint(), c.log.Fingerprint());
}

// The seed-42 fingerprints bench_scenarios prints, as scenario_test pins the
// five single-index ones: a change that moves a sharded run's events, say
// through the store under every shard, fails here.
TEST(ShardScenarioReplay, FingerprintsArePinned) {
  const std::vector<std::pair<std::string, uint32_t>> pinned = {
      {"shard_brownout", 0xcb2c2022u},
      {"shard_crash_requery", 0x52b52bd4u},
  };
  RunOptions opts;
  opts.mode = RunMode::kDeterministic;
  for (const auto& [name, fingerprint] : pinned) {
    const ScenarioOutcome o = MustRun(MustGet(name, 42), opts);
    EXPECT_EQ(o.log.Fingerprint(), fingerprint) << name;
  }
}

TEST(ShardScenarioReplay, CrashRequeryFingerprintIsBitStable) {
  const ScenarioSpec spec = MustGet("shard_crash_requery", 33);
  RunOptions opts;
  opts.mode = RunMode::kDeterministic;
  const ScenarioOutcome a = MustRun(spec, opts);
  const ScenarioOutcome b = MustRun(spec, opts);
  EXPECT_EQ(a.log.Fingerprint(), b.log.Fingerprint());
  EXPECT_TRUE(a.ok()) << a.ViolationSummary();
}

// ----------------------------------------------------- flight plans --

TEST(ShardBrownout, ExercisesHedgesRetriesAndPartialResults) {
  const ScenarioSpec spec = MustGet("shard_brownout", 5);
  RunOptions opts;
  opts.mode = RunMode::kDeterministic;
  const ScenarioOutcome outcome = MustRun(spec, opts);
  EXPECT_TRUE(outcome.ok()) << outcome.ViolationSummary();

  // The brownout must actually bite: hedges fired, sheds were retried, the
  // blackout degraded queries to partial coverage, and the quarantine
  // phase took the target shard out and revived it.
  EXPECT_GT(outcome.stats.hedges, 0u);
  EXPECT_GT(outcome.stats.shard_retries, 0u);
  EXPECT_GT(outcome.stats.partial_results, 0u);
  EXPECT_GE(outcome.stats.quarantines, 1u);
  EXPECT_GE(outcome.stats.recoveries, 1u);
  EXPECT_GT(outcome.stats.queries, 0u);
  EXPECT_EQ(outcome.stats.final_size, spec.TotalAdds());
  EXPECT_GT(outcome.log.Count(EventKind::kHedge), 0u);
  EXPECT_GT(outcome.log.Count(EventKind::kQuarantine), 0u);
}

TEST(ShardCrashRequery, RecoversBackfillsAndRequeries) {
  const ScenarioSpec spec = MustGet("shard_crash_requery", 9);
  RunOptions opts;
  opts.mode = RunMode::kDeterministic;
  const ScenarioOutcome outcome = MustRun(spec, opts);
  EXPECT_TRUE(outcome.ok()) << outcome.ViolationSummary();

  EXPECT_EQ(outcome.stats.crashes, 1u);
  EXPECT_GE(outcome.stats.recoveries, 1u);
  EXPECT_GE(outcome.stats.checkpoints_committed, 1u);
  EXPECT_GE(outcome.stats.quarantines, 1u);
  // The crash lost a tail and the backfill restored every lost row.
  EXPECT_GT(outcome.stats.add_ops, spec.TotalAdds());
  EXPECT_EQ(outcome.stats.final_size, spec.TotalAdds());
  EXPECT_EQ(outcome.log.Count(EventKind::kCrash), 1u);
  EXPECT_GE(outcome.log.Count(EventKind::kRecover), 1u);
}

// ---------------------------------------------------------- concurrent --

TEST(ShardScenarioConcurrent, BrownoutStormStaysValid) {
  const ScenarioSpec spec = MustGet("shard_brownout", 13);
  RunOptions opts;
  opts.mode = RunMode::kConcurrent;
  const ScenarioOutcome outcome = MustRun(spec, opts);
  EXPECT_TRUE(outcome.ok()) << outcome.ViolationSummary();
  EXPECT_GT(outcome.stats.queries, 0u);
  EXPECT_GE(outcome.stats.recoveries, 1u);
}

TEST(ShardScenarioConcurrent, CrashRequeryStormStaysValid) {
  const ScenarioSpec spec = MustGet("shard_crash_requery", 17);
  RunOptions opts;
  opts.mode = RunMode::kConcurrent;
  const ScenarioOutcome outcome = MustRun(spec, opts);
  EXPECT_TRUE(outcome.ok()) << outcome.ViolationSummary();
  EXPECT_EQ(outcome.stats.crashes, 1u);
  EXPECT_EQ(outcome.stats.final_size, spec.TotalAdds());
}

TEST(ShardScenarioSoak, LongVariantsUnderConcurrency) {
  if (std::getenv("MBI_SOAK") == nullptr) {
    GTEST_SKIP() << "set MBI_SOAK=1 for the long variants";
  }
  for (const std::string& name : kShardScenarios) {
    const ScenarioSpec spec = MustGet(name, 101, /*soak=*/true);
    RunOptions opts;
    opts.mode = RunMode::kConcurrent;
    const ScenarioOutcome outcome = MustRun(spec, opts);
    EXPECT_TRUE(outcome.ok()) << name << ":\n" << outcome.ViolationSummary();
  }
}

}  // namespace
}  // namespace mbi::scenario
