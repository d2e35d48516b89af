// The sharded serving layer: k-way merge edge cases, time-range routing and
// the global-id identity, window pruning, hedged retries, bounded backoff on
// sheds, quarantine + recovery, partial-result degradation, coverage
// policy, and a small concurrent storm (a TSan target together with
// shard_scenario_test — scripts/sanitize_smoke.sh --tsan shard_test).

#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "mbi/mbi_index.h"
#include "shard/sharded_mbi.h"
#include "util/budget.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mbi::shard {
namespace {

SearchResult MakeResult(std::vector<Neighbor> nbs) {
  SearchResult r;
  for (const Neighbor& nb : nbs) r.push_back(nb);
  return r;
}

// ---------------------------------------------------------------- merge --

TEST(MergeShardResults, KZeroIsEmpty) {
  const SearchResult a = MakeResult({{0.5f, 1}});
  const std::vector<const SearchResult*> parts = {&a};
  EXPECT_TRUE(MergeShardResults(0, parts).empty());
}

TEST(MergeShardResults, NoPartsIsEmpty) {
  EXPECT_TRUE(MergeShardResults(5, {}).empty());
}

TEST(MergeShardResults, MergesSortedAcrossParts) {
  const SearchResult a = MakeResult({{0.1f, 10}, {0.7f, 11}});
  const SearchResult b = MakeResult({{0.3f, 20}, {0.9f, 21}});
  const SearchResult merged = MergeShardResults(3, {&a, &b});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].id, 10);
  EXPECT_EQ(merged[1].id, 20);
  EXPECT_EQ(merged[2].id, 11);
}

TEST(MergeShardResults, SuppressesDuplicateIdsAcrossHedgedProbes) {
  // A hedged shard contributes two overlapping lists; the union must hold
  // each id once even when k has room for both copies.
  const SearchResult primary = MakeResult({{0.2f, 7}, {0.4f, 8}});
  const SearchResult hedge = MakeResult({{0.2f, 7}, {0.4f, 8}, {0.6f, 9}});
  const SearchResult merged = MergeShardResults(10, {&primary, &hedge});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].id, 7);
  EXPECT_EQ(merged[1].id, 8);
  EXPECT_EQ(merged[2].id, 9);
}

TEST(MergeShardResults, KLargerThanSurvivingCandidates) {
  const SearchResult a = MakeResult({{0.5f, 1}});
  const SearchResult empty;
  const SearchResult merged = MergeShardResults(64, {&a, &empty});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].id, 1);
}

TEST(MergeShardResults, EmptyShardsContributeNothing) {
  const SearchResult empty1, empty2;
  EXPECT_TRUE(MergeShardResults(4, {&empty1, &empty2}).empty());
}

TEST(MergeShardResults, InnerProductNegativeDistancesSortCorrectly) {
  // Inner-product "distances" are negated similarities: more negative =
  // closer. The merge comparator must keep the most negative values, in
  // ascending order, when parts straddle zero.
  const SearchResult a = MakeResult({{-3.5f, 1}, {0.5f, 2}});
  const SearchResult b = MakeResult({{-1.25f, 30}, {2.0f, 31}});
  const SearchResult merged = MergeShardResults(3, {&a, &b});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].id, 1);
  EXPECT_FLOAT_EQ(merged[0].distance, -3.5f);
  EXPECT_EQ(merged[1].id, 30);
  EXPECT_EQ(merged[2].id, 2);
}

// -------------------------------------------------------------- fixture --

ShardedMbiParams FlatParams(int64_t span) {
  ShardedMbiParams p;
  p.shard_span = span;
  p.shard.leaf_size = 16;
  p.shard.block_kind = BlockIndexKind::kFlat;
  p.hedge_delay_seconds = 0.005;
  return p;
}

// Adds `count` synthetic rows (timestamps 0..count-1) to `index`.
SyntheticData FillSharded(ShardedMbi* index, size_t count, uint64_t seed) {
  SyntheticParams gen;
  gen.dim = index->dim();
  gen.seed = seed;
  SyntheticData data = GenerateSynthetic(gen, count);
  for (size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(index->Add(data.vector(i), data.timestamps[i]).ok());
  }
  return data;
}

// A scripted injector: per-shard list of probe outcomes consumed in call
// order; exhausted scripts probe clean.
class ScriptedInjector final : public ShardFaultInjector {
 public:
  void Push(size_t shard, ShardProbeFault fault) {
    MutexLock lock(mu_);
    scripts_[shard].push_back(std::move(fault));
  }

  ShardProbeFault OnProbe(size_t shard, uint32_t attempt) override {
    (void)attempt;
    MutexLock lock(mu_);
    auto it = scripts_.find(shard);
    if (it == scripts_.end() || it->second.empty()) return {};
    ShardProbeFault fault = std::move(it->second.front());
    it->second.erase(it->second.begin());
    return fault;
  }

 private:
  Mutex mu_;
  std::map<size_t, std::vector<ShardProbeFault>> scripts_ MBI_GUARDED_BY(mu_);
};

// ----------------------------------------------------------- params --

TEST(ShardedMbiParamsTest, ValidateRejectsNanInEveryField) {
  // NaN fails every comparison, so a check written as `x < 0.0` lets it
  // through. Every float field must reject it, the shard's MbiParams
  // included.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Field {
    const char* name;
    void (*set)(ShardedMbiParams*, double);
  };
  const Field fields[] = {
      {"shard.tau", [](ShardedMbiParams* p, double v) { p->shard.tau = v; }},
      {"shard.shed_retry_after_seconds",
       [](ShardedMbiParams* p, double v) {
         p->shard.shed_retry_after_seconds = v;
       }},
      {"hedge_delay_seconds",
       [](ShardedMbiParams* p, double v) { p->hedge_delay_seconds = v; }},
      {"min_result_coverage",
       [](ShardedMbiParams* p, double v) { p->min_result_coverage = v; }},
      {"backoff.initial_seconds",
       [](ShardedMbiParams* p, double v) { p->backoff.initial_seconds = v; }},
      {"backoff.multiplier",
       [](ShardedMbiParams* p, double v) { p->backoff.multiplier = v; }},
      {"backoff.max_seconds",
       [](ShardedMbiParams* p, double v) { p->backoff.max_seconds = v; }},
      {"backoff.jitter",
       [](ShardedMbiParams* p, double v) { p->backoff.jitter = v; }},
  };
  for (const Field& f : fields) {
    ShardedMbiParams p = FlatParams(25);
    ASSERT_TRUE(p.Validate().ok()) << f.name;
    f.set(&p, nan);
    EXPECT_FALSE(p.Validate().ok()) << f.name << " = NaN passed Validate";
  }
  // +infinity is a valid hedge delay: it means "never hedge".
  ShardedMbiParams p = FlatParams(25);
  p.hedge_delay_seconds = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(p.Validate().ok());
}

TEST(ShardedMbi, InfiniteHedgeDelayNeverHedgesOnThePool) {
  ShardedMbiParams p = FlatParams(25);
  p.num_search_threads = 2;
  p.hedge_delay_seconds = std::numeric_limits<double>::infinity();
  ShardedMbi index(8, Metric::kL2, p);
  FillSharded(&index, 100, 37);
  auto injector = std::make_shared<ScriptedInjector>();
  injector->Push(1, ShardProbeFault{Status::Ok(), 0.02});
  index.SetFaultInjectorForTesting(injector);

  SearchParams sp;
  sp.k = 10;
  QueryContext ctx(3);
  const float q[8] = {};
  ShardQueryTrace trace;
  auto res = index.Search(q, TimeWindow::All(), sp, &ctx, &trace);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res.value().degraded());
  EXPECT_EQ(trace.shards_ok, 4u);
  EXPECT_EQ(trace.hedges_fired, 0u);
}

// -------------------------------------------------- routing + identity --

TEST(ShardedMbi, RoutesRowsToTimeShards) {
  ShardedMbi index(8, Metric::kL2, FlatParams(25));
  FillSharded(&index, 100, 11);
  EXPECT_EQ(index.num_shards(), 4u);
  EXPECT_EQ(index.size(), 100u);
  for (size_t i = 0; i < 4; ++i) {
    auto base = index.shard_base(i);
    ASSERT_TRUE(base.ok());
    EXPECT_EQ(base.value(), static_cast<int64_t>(i) * 25);
    auto pinned = index.shard(i);
    ASSERT_TRUE(pinned.ok());
    EXPECT_EQ(pinned.value()->size(), 25u);
  }
}

TEST(ShardedMbi, RejectsOutOfOrderAndNegativeTimestamps) {
  ShardedMbi index(4, Metric::kL2, FlatParams(10));
  const float v[4] = {1, 2, 3, 4};
  EXPECT_TRUE(index.Add(v, 5).ok());
  EXPECT_FALSE(index.Add(v, 4).ok());
  EXPECT_FALSE(index.Add(v, -1).ok());
}

TEST(ShardedMbi, MaxShardsCapsGrowth) {
  ShardedMbiParams p = FlatParams(10);
  p.max_shards = 2;
  ShardedMbi index(4, Metric::kL2, p);
  const float v[4] = {1, 2, 3, 4};
  EXPECT_TRUE(index.Add(v, 0).ok());
  EXPECT_TRUE(index.Add(v, 19).ok());
  const Status st = index.Add(v, 20);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
}

// A span of 2^62 puts shard 1's far edge at 2^63: the shard windows and the
// planner saturate at INT64_MAX instead of wrapping negative.
TEST(ShardedMbi, HugeSpanSaturatesAtInt64Max) {
  const int64_t span = int64_t{1} << 62;
  const int64_t max = std::numeric_limits<int64_t>::max();
  ShardedMbi index(4, Metric::kL2, FlatParams(span));
  const float v[4] = {1, 2, 3, 4};
  ASSERT_TRUE(index.Add(v, 0).ok());
  ASSERT_TRUE(index.Add(v, span).ok());
  EXPECT_EQ(index.ShardWindow(0), (TimeWindow{0, span}));
  EXPECT_EQ(index.ShardWindow(1), (TimeWindow{span, max}));
  EXPECT_EQ(index.ShardWindow(2), (TimeWindow{max, max}));
  EXPECT_TRUE(index.AppendToShard(1, v, span + 5).ok());
  ASSERT_TRUE(index.Add(v, max - 1).ok());

  SearchParams sp;
  sp.k = 3;
  QueryContext ctx(1);
  Result<SearchResult> all = index.Search(v, TimeWindow::All(), sp, &ctx);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all.value().size(), 3u);
  EXPECT_EQ(all.value().shards_total, 2u);
}

// With flat (exact) blocks, a sharded query over any window must
// bit-match a single unsharded index over the same rows: identical ids,
// identical distance bits.
TEST(ShardedMbi, AllHealthyMatchesSingleIndexOracle) {
  const size_t dim = 8, rows = 120;
  ShardedMbi index(dim, Metric::kL2, FlatParams(30));
  SyntheticData data = FillSharded(&index, rows, 23);

  MbiParams single_params = FlatParams(30).shard;
  MbiIndex single(dim, Metric::kL2, single_params);
  for (size_t i = 0; i < rows; ++i) {
    ASSERT_TRUE(single.Add(data.vector(i), data.timestamps[i]).ok());
  }

  SyntheticParams gen;
  gen.dim = dim;
  gen.seed = 99;
  std::vector<float> queries = GenerateQueries(gen, 10);
  const TimeWindow windows[] = {TimeWindow::All(), {10, 70}, {29, 31},
                                {90, 120}};
  for (size_t qi = 0; qi < 10; ++qi) {
    for (const TimeWindow& w : windows) {
      SearchParams sp;
      sp.k = 10;
      QueryContext ctx(7);
      ShardQueryTrace trace;
      auto res =
          index.Search(queries.data() + qi * dim, w, sp, &ctx, &trace);
      ASSERT_TRUE(res.ok());
      QueryContext sctx(7);
      const SearchResult expect =
          single.Search(queries.data() + qi * dim, w, sp, &sctx);
      ASSERT_EQ(res.value().size(), expect.size());
      for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(res.value()[i].id, expect[i].id);
        EXPECT_EQ(res.value()[i].distance, expect[i].distance);
      }
      EXPECT_EQ(trace.shards_ok, trace.shards_selected);
      EXPECT_FALSE(res.value().degraded());
    }
  }
}

TEST(ShardedMbi, PlannerPrunesNonOverlappingShards) {
  ShardedMbi index(8, Metric::kL2, FlatParams(25));
  FillSharded(&index, 100, 31);
  SearchParams sp;
  sp.k = 5;
  QueryContext ctx(1);
  const float q[8] = {};
  ShardQueryTrace trace;
  ASSERT_TRUE(index.Search(q, TimeWindow{30, 45}, sp, &ctx, &trace).ok());
  EXPECT_EQ(trace.shards_selected, 1u);
  EXPECT_EQ(trace.shards_pruned, 3u);

  // A window before all data selects nothing and returns cleanly.
  auto res = index.Search(q, TimeWindow{-50, 0}, sp, &ctx, &trace);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.value().empty());
  EXPECT_EQ(trace.shards_pruned, 4u);
}

// ------------------------------------------- faults, retries, hedging --

TEST(ShardedMbi, ShedsAreRetriedWithBackoff) {
  ShardedMbiParams p = FlatParams(25);
  p.backoff.max_retries = 2;
  ShardedMbi index(8, Metric::kL2, p);
  FillSharded(&index, 100, 41);

  auto injector = std::make_shared<ScriptedInjector>();
  // Shard 2: shed the first two probes; the third succeeds.
  for (int i = 0; i < 2; ++i) {
    injector->Push(2, ShardProbeFault{
        Status::ResourceExhausted("shed").WithRetryAfter(0.0001), 0.0});
  }
  index.SetFaultInjectorForTesting(injector);

  SearchParams sp;
  sp.k = 10;
  QueryContext ctx(3);
  const float q[8] = {};
  ShardQueryTrace trace;
  auto res = index.Search(q, TimeWindow::All(), sp, &ctx, &trace);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res.value().degraded());
  EXPECT_EQ(trace.shards_ok, 4u);
  EXPECT_EQ(trace.retries_total, 2u);
  EXPECT_EQ(res.value().shards_ok, 4u);
}

TEST(ShardedMbi, RunawayRetryAfterHintIsCappedByBackoffMax) {
  // A shed carrying an absurd structured hint (30s) must not park the
  // query: BackoffPolicy floors the delay at the hint but clamps it to
  // max_seconds. With a 2ms cap this completes in milliseconds — if the
  // clamp regressed, the retries would sleep for the full hint and the
  // test would time out.
  ShardedMbiParams p = FlatParams(25);
  p.backoff.max_retries = 2;
  p.backoff.max_seconds = 0.002;
  // Never hedge: keep the scripted shed sequence race-free.
  p.hedge_delay_seconds = std::numeric_limits<double>::infinity();
  ShardedMbi index(8, Metric::kL2, p);
  FillSharded(&index, 100, 47);

  auto injector = std::make_shared<ScriptedInjector>();
  for (int i = 0; i < 2; ++i) {
    injector->Push(2, ShardProbeFault{
        Status::ResourceExhausted("shed").WithRetryAfter(30.0), 0.0});
  }
  index.SetFaultInjectorForTesting(injector);

  SearchParams sp;
  sp.k = 10;
  QueryContext ctx(3);
  const float q[8] = {};
  ShardQueryTrace trace;
  auto res = index.Search(q, TimeWindow::All(), sp, &ctx, &trace);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res.value().degraded());
  EXPECT_EQ(trace.retries_total, 2u);
  EXPECT_EQ(trace.shards_ok, 4u);
}

TEST(ShardedMbi, RetryBudgetExhaustionDegradesToPartialResult) {
  ShardedMbiParams p = FlatParams(25);
  p.backoff.max_retries = 1;
  p.hedge_delay_seconds = std::numeric_limits<double>::infinity();
  ShardedMbi index(8, Metric::kL2, p);
  FillSharded(&index, 100, 43);

  auto injector = std::make_shared<ScriptedInjector>();
  // Exactly the primary chain's budget (1 + 1 retry): the first query
  // exhausts it and degrades; the second probes a drained script, cleanly.
  for (int i = 0; i < 2; ++i) {
    injector->Push(1, ShardProbeFault{Status::ResourceExhausted("shed"), 0.0});
  }
  index.SetFaultInjectorForTesting(injector);

  SearchParams sp;
  sp.k = 10;
  QueryContext ctx(3);
  const float q[8] = {};
  ShardQueryTrace trace;
  auto res = index.Search(q, TimeWindow::All(), sp, &ctx, &trace);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.value().degraded());
  EXPECT_EQ(res.value().degrade_reason, DegradeReason::kShardUnavailable);
  EXPECT_EQ(res.value().shards_ok, 3u);
  EXPECT_EQ(res.value().shards_total, 4u);
  EXPECT_NEAR(res.value().ShardCoverage(), 0.75, 1e-9);
  // A shed-out shard is not a quarantine: the next query probes it again.
  EXPECT_TRUE(index.shard_healthy(1));
  ShardQueryTrace trace2;
  auto res2 = index.Search(q, TimeWindow::All(), sp, &ctx, &trace2);
  ASSERT_TRUE(res2.ok());
  EXPECT_FALSE(res2.value().degraded());
}

TEST(ShardedMbi, SerialHedgeFiresOnSimulatedStragglerAndDedupes) {
  ShardedMbiParams p = FlatParams(25);
  p.hedge_delay_seconds = 0.005;
  ShardedMbi index(8, Metric::kL2, p);
  SyntheticData data = FillSharded(&index, 100, 47);

  auto injector = std::make_shared<ScriptedInjector>();
  // Primary probe of shard 0 is slow (past the hedge threshold) but
  // succeeds; the hedge also succeeds — the merge must not duplicate ids.
  injector->Push(0, ShardProbeFault{Status::Ok(), 0.020});
  index.SetFaultInjectorForTesting(injector);

  SearchParams sp;
  sp.k = 20;
  QueryContext ctx(5);
  ShardQueryTrace trace;
  auto res = index.Search(data.vector(3), TimeWindow{0, 50}, sp, &ctx,
                          &trace);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(trace.hedges_fired, 1u);
  EXPECT_TRUE(trace.probes[0].hedged);
  std::set<VectorId> seen;
  for (const Neighbor& nb : res.value()) {
    EXPECT_TRUE(seen.insert(nb.id).second) << "duplicate id " << nb.id;
  }
  EXPECT_FALSE(res.value().degraded());
}

TEST(ShardedMbi, HedgeRescuesFailedPrimary) {
  ShardedMbiParams p = FlatParams(25);
  p.hedge_delay_seconds = 0.001;
  p.backoff.max_retries = 0;
  ShardedMbi index(8, Metric::kL2, p);
  FillSharded(&index, 100, 53);

  auto injector = std::make_shared<ScriptedInjector>();
  // Primary sheds slowly (crossing the hedge threshold); the hedge probes
  // clean, so the shard still contributes.
  injector->Push(3, ShardProbeFault{Status::ResourceExhausted("shed"), 0.002});
  index.SetFaultInjectorForTesting(injector);

  SearchParams sp;
  sp.k = 10;
  QueryContext ctx(5);
  const float q[8] = {};
  ShardQueryTrace trace;
  auto res = index.Search(q, TimeWindow::All(), sp, &ctx, &trace);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res.value().degraded());
  EXPECT_EQ(res.value().shards_ok, 4u);
  EXPECT_EQ(trace.hedges_fired, 1u);
}

TEST(ShardedMbi, UnavailableProbeQuarantinesTheShard) {
  ShardedMbiParams p = FlatParams(25);
  p.hedge_delay_seconds = std::numeric_limits<double>::infinity();
  ShardedMbi index(8, Metric::kL2, p);
  FillSharded(&index, 100, 59);

  auto injector = std::make_shared<ScriptedInjector>();
  injector->Push(2, ShardProbeFault{Status::Unavailable("machine gone"), 0.0});
  index.SetFaultInjectorForTesting(injector);

  SearchParams sp;
  sp.k = 10;
  QueryContext ctx(5);
  const float q[8] = {};
  auto res = index.Search(q, TimeWindow::All(), sp, &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.value().degraded());
  EXPECT_FALSE(index.shard_healthy(2));
  EXPECT_EQ(index.shard_status(2).code(), StatusCode::kUnavailable);

  // Quarantined shards are skipped, not probed: the next query degrades
  // without consulting the injector.
  ShardQueryTrace trace;
  auto res2 = index.Search(q, TimeWindow::All(), sp, &ctx, &trace);
  ASSERT_TRUE(res2.ok());
  EXPECT_TRUE(res2.value().degraded());
  EXPECT_EQ(res2.value().degrade_reason, DegradeReason::kShardUnavailable);
  bool saw_quarantined = false;
  for (const auto& probe : trace.probes) {
    if (probe.quarantined) saw_quarantined = true;
  }
  EXPECT_TRUE(saw_quarantined);

  // Ingest into a quarantined shard's span is refused until repair.
  const float v[8] = {};
  EXPECT_EQ(index.AppendToShard(2, v, 60).code(), StatusCode::kUnavailable);
}

TEST(ShardedMbi, MinResultCoverageFailsLowCoverageQueries) {
  ShardedMbiParams p = FlatParams(25);
  p.min_result_coverage = 1.0;
  ShardedMbi index(8, Metric::kL2, p);
  FillSharded(&index, 100, 61);
  ASSERT_TRUE(
      index.QuarantineShard(1, Status::Unavailable("operator")).ok());

  SearchParams sp;
  sp.k = 10;
  QueryContext ctx(5);
  const float q[8] = {};
  auto res = index.Search(q, TimeWindow::All(), sp, &ctx);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kUnavailable);

  // A window inside a healthy shard is unaffected by the quarantine.
  auto narrow = index.Search(q, TimeWindow{60, 70}, sp, &ctx);
  ASSERT_TRUE(narrow.ok());
  EXPECT_FALSE(narrow.value().degraded());
}

// One fault schedule at fan-out widths 0, 2 and 4. The pool only spreads
// the per-shard bodies over threads, so the answer, its completion, shard
// health and every probe's record match the serial fan-out exactly.
TEST(ShardedMbi, EveryFanOutWidthGivesTheSameAnswersAndTraces) {
  struct Run {
    SearchResult result;
    ShardQueryTrace trace;
    std::vector<bool> healthy;
  };
  auto run = [](size_t threads) {
    ShardedMbiParams p = FlatParams(25);
    p.num_search_threads = threads;
    p.hedge_delay_seconds = 0.005;
    p.backoff.max_retries = 2;
    p.backoff.initial_seconds = 0.001;
    p.backoff.max_seconds = 0.002;
    ShardedMbi index(8, Metric::kL2, p);
    SyntheticData data = FillSharded(&index, 150, 97);

    auto injector = std::make_shared<ScriptedInjector>();
    // Shard 0: the primary is slow past the hedge delay; both chains answer.
    injector->Push(0, ShardProbeFault{Status::Ok(), 0.020});
    // Shard 1: one shed with a retry-after hint, then a clean retry.
    injector->Push(1, ShardProbeFault{
        Status::ResourceExhausted("shed").WithRetryAfter(0.0005), 0.0});
    // Shard 2: a slow kUnavailable primary whose hedge fails too.
    injector->Push(2, ShardProbeFault{Status::Unavailable("primary"), 0.010});
    injector->Push(2, ShardProbeFault{Status::Unavailable("replica"), 0.0});
    // Shard 3: a slow primary answers while its hedge fails with
    // kUnavailable, so the shard stays in rotation.
    injector->Push(3, ShardProbeFault{Status::Ok(), 0.020});
    injector->Push(3, ShardProbeFault{Status::Unavailable("replica"), 0.0});
    // Shard 4: data loss.
    injector->Push(4, ShardProbeFault{Status::DataLoss("bad segment"), 0.0});
    index.SetFaultInjectorForTesting(injector);

    SearchParams sp;
    sp.k = 20;
    QueryContext ctx(11);
    Run out;
    auto res = index.Search(data.vector(60), TimeWindow::All(), sp, &ctx,
                            &out.trace);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    if (res.ok()) out.result = std::move(res).value();
    for (size_t i = 0; i < index.num_shards(); ++i) {
      out.healthy.push_back(index.shard_healthy(i));
    }
    return out;
  };

  const Run serial = run(0);
  EXPECT_TRUE(serial.result.degraded());
  EXPECT_EQ(serial.result.degrade_reason, DegradeReason::kShardUnavailable);
  EXPECT_EQ(serial.result.shards_ok, 4u);
  EXPECT_EQ(serial.result.shards_total, 6u);
  EXPECT_EQ(serial.trace.hedges_fired, 3u);
  EXPECT_EQ(serial.trace.retries_total, 1u);
  EXPECT_EQ(serial.healthy,
            (std::vector<bool>{true, true, false, true, false, true}));

  for (const size_t threads : {2, 4}) {
    SCOPED_TRACE("num_search_threads " + std::to_string(threads));
    const Run pooled = run(threads);
    ASSERT_EQ(pooled.result.size(), serial.result.size());
    for (size_t i = 0; i < serial.result.size(); ++i) {
      EXPECT_EQ(pooled.result[i].id, serial.result[i].id);
      EXPECT_EQ(std::bit_cast<uint32_t>(pooled.result[i].distance),
                std::bit_cast<uint32_t>(serial.result[i].distance));
    }
    EXPECT_EQ(pooled.result.completion, serial.result.completion);
    EXPECT_EQ(pooled.result.degrade_reason, serial.result.degrade_reason);
    EXPECT_EQ(pooled.result.shards_ok, serial.result.shards_ok);
    EXPECT_EQ(pooled.healthy, serial.healthy);
    ASSERT_EQ(pooled.trace.probes.size(), serial.trace.probes.size());
    for (size_t i = 0; i < serial.trace.probes.size(); ++i) {
      const ShardQueryTrace::Probe& a = pooled.trace.probes[i];
      const ShardQueryTrace::Probe& b = serial.trace.probes[i];
      SCOPED_TRACE("shard " + std::to_string(b.shard_index));
      EXPECT_EQ(a.shard_index, b.shard_index);
      EXPECT_EQ(a.attempts, b.attempts);
      EXPECT_EQ(a.retries, b.retries);
      EXPECT_EQ(a.hedged, b.hedged);
      EXPECT_EQ(a.ok, b.ok);
      EXPECT_EQ(a.latency_seconds, b.latency_seconds);
      EXPECT_EQ(a.error, b.error);
    }
  }
}

// A probe that throws fails its query at every fan-out width: the caller
// waits for the other probes, which use its frame, then rethrows, and the
// pool stays usable.
TEST(ShardedMbi, ThrowingProbeFailsItsQueryAtEveryWidth) {
  class ThrowingInjector final : public ShardFaultInjector {
   public:
    ShardProbeFault OnProbe(size_t shard, uint32_t) override {
      if (shard == 1 && armed.exchange(false)) {
        throw std::runtime_error("injector failed");
      }
      return {};
    }
    std::atomic<bool> armed{true};
  };
  for (const size_t threads : {0, 2, 4}) {
    SCOPED_TRACE("num_search_threads " + std::to_string(threads));
    ShardedMbiParams p = FlatParams(25);
    p.num_search_threads = threads;
    ShardedMbi index(8, Metric::kL2, p);
    FillSharded(&index, 100, 103);
    auto injector = std::make_shared<ThrowingInjector>();
    index.SetFaultInjectorForTesting(injector);

    SearchParams sp;
    sp.k = 10;
    QueryContext ctx(5);
    const float q[8] = {};
    EXPECT_THROW(index.Search(q, TimeWindow::All(), sp, &ctx),
                 std::runtime_error);
    auto res = index.Search(q, TimeWindow::All(), sp, &ctx);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.value().shards_ok, 4u);
  }
}

// ------------------------------------------------- checkpoint/recover --

TEST(ShardedMbi, CheckpointRecoverRevivesAQuarantinedShard) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "mbi_shard_test_ck").string();
  std::filesystem::remove_all(dir);

  ShardedMbi index(8, Metric::kL2, FlatParams(25));
  SyntheticData data = FillSharded(&index, 100, 67);
  ASSERT_TRUE(index.CheckpointShard(1, dir).ok());
  ASSERT_TRUE(index.QuarantineShard(1, Status::Unavailable("lost")).ok());
  EXPECT_FALSE(index.shard_healthy(1));

  ASSERT_TRUE(index.RecoverShard(1, dir).ok());
  EXPECT_TRUE(index.shard_healthy(1));
  EXPECT_EQ(index.size(), 100u);

  // Recovered rows are bit-identical to what was ingested.
  auto pinned = index.shard(1);
  ASSERT_TRUE(pinned.ok());
  const VectorStore& store = pinned.value()->store();
  ASSERT_EQ(store.size(), 25u);
  for (size_t local = 0; local < 25; ++local) {
    EXPECT_EQ(0, std::memcmp(store.GetVector(local), data.vector(25 + local),
                             8 * sizeof(float)));
  }
  std::filesystem::remove_all(dir);
}

// A revived shard runs with the shard parameters the fleet holds, not with
// the defaults of a bare MbiIndex::Recover.
TEST(ShardedMbi, RecoverShardKeepsTheShardsRunningSettings) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "mbi_shard_test_settings")
          .string();
  std::filesystem::remove_all(dir);
  ShardedMbiParams p = FlatParams(25);
  p.shard.adaptive_block_search = true;
  p.shard.max_inflight_queries = 3;
  p.shard.shed_retry_after_seconds = 0.5;
  p.shard.max_blocks_per_add = 1;
  p.shard.num_threads = 2;
  ShardedMbi index(8, Metric::kL2, p);
  FillSharded(&index, 100, 101);
  ASSERT_TRUE(index.CheckpointShard(1, dir).ok());
  ASSERT_TRUE(index.QuarantineShard(1, Status::Unavailable("lost")).ok());
  ASSERT_TRUE(index.RecoverShard(1, dir).ok());

  auto pinned = index.shard(1);
  ASSERT_TRUE(pinned.ok());
  const MbiParams& r = pinned.value()->params();
  EXPECT_EQ(r.adaptive_block_search, true);
  EXPECT_EQ(r.max_inflight_queries, 3u);
  EXPECT_EQ(r.shed_retry_after_seconds, 0.5);
  EXPECT_EQ(r.max_blocks_per_add, 1u);
  EXPECT_EQ(r.num_threads, 2u);
  std::filesystem::remove_all(dir);
}

TEST(ShardedMbi, FailedRecoveryQuarantinesUntilRetry) {
  const std::string good =
      (std::filesystem::temp_directory_path() / "mbi_shard_test_good")
          .string();
  std::filesystem::remove_all(good);
  ShardedMbi index(8, Metric::kL2, FlatParams(25));
  FillSharded(&index, 100, 71);
  ASSERT_TRUE(index.CheckpointShard(0, good).ok());

  EXPECT_FALSE(index.RecoverShard(0, good + "_nonexistent").ok());
  EXPECT_FALSE(index.shard_healthy(0));

  // The retry against a healthy directory revives it.
  ASSERT_TRUE(index.RecoverShard(0, good).ok());
  EXPECT_TRUE(index.shard_healthy(0));
  std::filesystem::remove_all(good);
}

TEST(ShardedMbi, AppendToShardBackfillsALostTail) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "mbi_shard_test_bf").string();
  std::filesystem::remove_all(dir);
  ShardedMbi index(8, Metric::kL2, FlatParams(25));
  SyntheticData data;
  {
    SyntheticParams gen;
    gen.dim = 8;
    gen.seed = 73;
    data = GenerateSynthetic(gen, 100);
  }
  // Checkpoint shard 1 mid-fill, then finish ingest: the checkpoint holds
  // a strict prefix of the shard.
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(index.Add(data.vector(i), data.timestamps[i]).ok());
    if (i == 40) {
      ASSERT_TRUE(index.CheckpointShard(1, dir).ok());
    }
  }
  ASSERT_TRUE(index.RecoverShard(1, dir).ok());
  EXPECT_EQ(index.size(), 91u);  // rows 41..49 of shard 1's tail lost

  // Out-of-span timestamps are refused; in-span backfill repairs the hole.
  EXPECT_EQ(index.AppendToShard(1, data.vector(50), 50).code(),
            StatusCode::kInvalidArgument);
  for (size_t row = 41; row < 50; ++row) {
    ASSERT_TRUE(
        index.AppendToShard(1, data.vector(row), data.timestamps[row]).ok());
  }
  EXPECT_EQ(index.size(), 100u);

  // The repaired shard answers exactly again.
  SearchParams sp;
  sp.k = 10;
  QueryContext ctx(5);
  ShardQueryTrace trace;
  auto res = index.Search(data.vector(45), TimeWindow{25, 50}, sp, &ctx,
                          &trace);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res.value().degraded());
  ASSERT_FALSE(res.value().empty());
  EXPECT_EQ(res.value()[0].id, 45);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------ budget slicing --

TEST(QueryBudgetSlice, DividesWorkCapsSharesDeadline) {
  QueryBudget budget;
  budget.max_distance_evals = 1000;
  budget.max_hops = 10;
  const QueryBudget child = budget.Slice(4);
  EXPECT_EQ(child.max_distance_evals, 250u);
  EXPECT_EQ(child.max_hops, 2u);
  // Slicing never rounds a cap to zero (that would mean "unbounded").
  const QueryBudget tiny = budget.Slice(5000);
  EXPECT_EQ(tiny.max_distance_evals, 1u);
  // shares <= 1 is the identity.
  EXPECT_EQ(budget.Slice(1).max_distance_evals, 1000u);
}

// ----------------------------------------------------------- explain --

TEST(ShardedMbi, ExplainReportsFanOut) {
  ShardedMbi index(8, Metric::kL2, FlatParams(25));
  FillSharded(&index, 100, 79);
  SearchParams sp;
  sp.k = 5;
  QueryContext ctx(5);
  const float q[8] = {};
  ShardQueryTrace trace;
  ASSERT_TRUE(index.Search(q, TimeWindow{0, 60}, sp, &ctx, &trace).ok());
  EXPECT_EQ(trace.shards_selected, 3u);
  const std::string text = trace.ToString();
  EXPECT_NE(text.find("shard"), std::string::npos);
}

// --------------------------------------------------------- concurrent --

TEST(ShardedMbi, ConcurrentStormWithFaultsStaysValid) {
  ShardedMbiParams p = FlatParams(50);
  p.num_search_threads = 4;
  p.hedge_delay_seconds = 0.001;
  p.backoff.max_retries = 2;
  p.backoff.initial_seconds = 0.0002;
  p.backoff.max_seconds = 0.002;
  ShardedMbi index(8, Metric::kL2, p);
  SyntheticData data = FillSharded(&index, 200, 83);

  auto injector = std::make_shared<ScriptedInjector>();
  for (int i = 0; i < 200; ++i) {
    injector->Push(1, ShardProbeFault{
        (i % 3 == 0) ? Status::ResourceExhausted("shed").WithRetryAfter(0.0002)
                     : Status::Ok(),
        0.002});
  }
  index.SetFaultInjectorForTesting(injector);

  constexpr size_t kThreads = 4, kQueries = 25;
  std::atomic<size_t> invalid{0};
  std::atomic<size_t> errors{0};
  {
    ThreadPool pool(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      pool.Submit([&index, &data, &invalid, &errors, t] {
        QueryContext ctx(1000 + t);
        SearchParams sp;
        sp.k = 10;
        for (size_t i = 0; i < kQueries; ++i) {
          QueryBudget budget = QueryBudget::WithDeadline(0.5);
          sp.budget = &budget;
          ShardQueryTrace trace;
          auto res = index.Search(data.vector((t * kQueries + i) % 200),
                                  TimeWindow::All(), sp, &ctx, &trace);
          if (!res.ok()) {
            ++errors;
            continue;
          }
          const SearchResult& r = res.value();
          if (r.size() > sp.k) ++invalid;
          for (size_t j = 0; j + 1 < r.size(); ++j) {
            if (r[j + 1].distance < r[j].distance) ++invalid;
            if (r[j + 1].id == r[j].id) ++invalid;
          }
          for (const Neighbor& nb : r) {
            if (nb.id < 0 || nb.id >= 200) ++invalid;
          }
        }
      });
    }
  }
  EXPECT_EQ(invalid.load(), 0u);
  EXPECT_EQ(errors.load(), 0u);  // min_result_coverage 0: never an error
}

TEST(ShardedMbi, ConcurrentRecoverRacesQueries) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "mbi_shard_test_race")
          .string();
  std::filesystem::remove_all(dir);
  ShardedMbiParams p = FlatParams(50);
  p.num_search_threads = 2;
  ShardedMbi index(8, Metric::kL2, p);
  SyntheticData data = FillSharded(&index, 200, 89);
  ASSERT_TRUE(index.CheckpointShard(1, dir).ok());

  std::atomic<bool> stop{false};
  std::atomic<size_t> invalid{0};
  {
    ThreadPool pool(2);
    for (size_t t = 0; t < 2; ++t) {
      pool.Submit([&index, &data, &stop, &invalid, t] {
        QueryContext ctx(2000 + t);
        SearchParams sp;
        sp.k = 10;
        while (!stop.load(std::memory_order_acquire)) {
          auto res =
              index.Search(data.vector(t), TimeWindow::All(), sp, &ctx);
          if (res.ok() && res.value().size() > sp.k) ++invalid;
        }
      });
    }
    // Swap the shard out and back while queries are in flight; pinned
    // probes must finish safely against the old instance.
    for (int cycle = 0; cycle < 5; ++cycle) {
      ASSERT_TRUE(
          index.QuarantineShard(1, Status::Unavailable("migrating")).ok());
      ASSERT_TRUE(index.RecoverShard(1, dir).ok());
    }
    stop.store(true, std::memory_order_release);
  }
  EXPECT_EQ(invalid.load(), 0u);
  EXPECT_TRUE(index.shard_healthy(1));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mbi::shard
