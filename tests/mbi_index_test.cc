// MbiIndex: incremental structure invariants (Algorithm 3), query processing
// (Algorithm 4), exactness oracle against BSBF, parallel/batch equivalence.

#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/bsbf.h"
#include "data/synthetic.h"
#include "eval/recall.h"
#include "index/graph_block_index.h"
#include "mbi/mbi_index.h"
#include "obs/metrics.h"

namespace mbi {
namespace {

SyntheticData MakeData(size_t n, size_t dim = 8, uint64_t seed = 99) {
  SyntheticParams gen;
  gen.dim = dim;
  gen.num_clusters = 8;
  gen.seed = seed;
  return GenerateSynthetic(gen, n);
}

MbiParams SmallParams(int64_t leaf_size = 16, double tau = 0.5) {
  MbiParams p;
  p.leaf_size = leaf_size;
  p.tau = tau;
  p.build.degree = 8;
  p.build.exact_threshold = 1 << 20;  // exact everywhere: deterministic
  return p;
}

TEST(MbiParamsTest, Validation) {
  MbiParams p = SmallParams();
  EXPECT_TRUE(p.Validate().ok());
  p.leaf_size = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = SmallParams();
  p.tau = 0.0;
  EXPECT_FALSE(p.Validate().ok());
  p.tau = 1.5;
  EXPECT_FALSE(p.Validate().ok());
  p = SmallParams();
  p.build.degree = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = SmallParams();
  p.num_threads = 0;
  EXPECT_FALSE(p.Validate().ok());
}

// NNDescent converts rho * degree and delta * n * degree to size_t, so a
// NaN or negative value must never pass, from a caller or a manifest.
TEST(MbiParamsTest, ValidationChecksEveryBuildField) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double rho : {nan, 0.0, -0.5, 1.5}) {
    MbiParams p = SmallParams();
    p.build.rho = rho;
    EXPECT_FALSE(p.Validate().ok()) << "rho " << rho;
  }
  for (double delta : {nan, -0.001, 1.5}) {
    MbiParams p = SmallParams();
    p.build.delta = delta;
    EXPECT_FALSE(p.Validate().ok()) << "delta " << delta;
  }
  MbiParams p = SmallParams();
  p.build.max_iterations = 0;
  EXPECT_FALSE(p.Validate().ok());
  // The edges of each range stay valid.
  for (double rho : {1e-9, 0.3, 1.0}) {
    p = SmallParams();
    p.build.rho = rho;
    EXPECT_TRUE(p.Validate().ok()) << "rho " << rho;
  }
  for (double delta : {0.0, 0.002, 1.0}) {
    p = SmallParams();
    p.build.delta = delta;
    EXPECT_TRUE(p.Validate().ok()) << "delta " << delta;
  }
  p = SmallParams();
  p.build.max_iterations = 1;
  EXPECT_TRUE(p.Validate().ok());
}

TEST(MbiIndexTest, StructureInvariantsAfterEveryInsert) {
  const size_t kMax = 200;
  SyntheticData data = MakeData(kMax);
  MbiIndex index(8, Metric::kL2, SmallParams(/*leaf_size=*/8));

  for (size_t i = 0; i < kMax; ++i) {
    ASSERT_TRUE(index.Add(data.vector(i), data.timestamps[i]).ok());
    const BlockTreeShape s = index.shape();
    // Block count always matches the closed form B(full_leaves).
    ASSERT_EQ(static_cast<int64_t>(index.num_blocks()), s.NumFullBlocks())
        << "after insert " << i;
    // Every block's range matches its node's range, in creation order.
    auto nodes = s.AllFullNodes();
    for (size_t b = 0; b < nodes.size(); ++b) {
      EXPECT_EQ(index.block(b).range(), s.NodeRange(nodes[b]));
    }
  }
}

TEST(MbiIndexTest, AddRejectsOutOfOrderTimestamps) {
  MbiIndex index(2, Metric::kL2, SmallParams());
  float v[2] = {1, 2};
  ASSERT_TRUE(index.Add(v, 10).ok());
  EXPECT_EQ(index.Add(v, 9).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(index.size(), 1u);
}

// With flat block indexes, MBI's Algorithm 4 is exact, so its results must
// equal BSBF's on every window — a complete end-to-end oracle for block
// selection + per-block search + merging.
class MbiExactOracleTest : public ::testing::TestWithParam<double> {};

TEST_P(MbiExactOracleTest, FlatMbiEqualsBsbfEverywhere) {
  const double tau = GetParam();
  const size_t kN = 300, kDim = 8;
  SyntheticData data = MakeData(kN, kDim, 7);

  MbiParams p = SmallParams(/*leaf_size=*/16, tau);
  p.block_kind = BlockIndexKind::kFlat;
  MbiIndex index(kDim, Metric::kL2, p);
  BsbfIndex bsbf(kDim, Metric::kL2);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(index.Add(data.vector(i), data.timestamps[i]).ok());
    ASSERT_TRUE(bsbf.Add(data.vector(i), data.timestamps[i]).ok());
  }

  auto queries = GenerateQueries({.dim = kDim, .seed = 7}, 5);
  QueryContext ctx;
  SearchParams sp;
  sp.k = 10;

  Rng rng(tau * 1000);
  for (int trial = 0; trial < 100; ++trial) {
    int64_t a = static_cast<int64_t>(rng.NextBounded(kN));
    int64_t b = a + 1 + static_cast<int64_t>(rng.NextBounded(kN - a));
    TimeWindow w{a, b};
    for (size_t qi = 0; qi < 5; ++qi) {
      const float* q = queries.data() + qi * kDim;
      SearchResult got = index.Search(q, w, sp, &ctx);
      SearchResult want = bsbf.Search(q, 10, w);
      ASSERT_EQ(got.size(), want.size()) << "window [" << a << "," << b << ")";
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id);
        EXPECT_FLOAT_EQ(got[i].distance, want[i].distance);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Taus, MbiExactOracleTest,
                         ::testing::Values(0.2, 0.5, 0.8, 1.0));

TEST(MbiIndexTest, IncrementalEqualsDeferredBatch) {
  const size_t kN = 200, kDim = 8;
  SyntheticData data = MakeData(kN, kDim, 21);

  MbiIndex incremental(kDim, Metric::kL2, SmallParams(16));
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(incremental.Add(data.vector(i), data.timestamps[i]).ok());
  }
  MbiIndex batch(kDim, Metric::kL2, SmallParams(16));
  ASSERT_TRUE(batch
                  .AddBatch(data.vectors.data(), data.timestamps.data(), kN,
                            /*defer_builds=*/true)
                  .ok());

  ASSERT_EQ(incremental.num_blocks(), batch.num_blocks());
  for (size_t b = 0; b < incremental.num_blocks(); ++b) {
    EXPECT_EQ(incremental.block(b).range(), batch.block(b).range());
    // Exact builder (forced by exact_threshold) is deterministic, so graphs
    // must be identical.
    const auto& ga = static_cast<const GraphBlockIndex&>(incremental.block(b));
    const auto& gb = static_cast<const GraphBlockIndex&>(batch.block(b));
    EXPECT_TRUE(ga.graph() == gb.graph()) << "block " << b;
  }
}

TEST(MbiIndexTest, ParallelBuildEqualsSerialBuild) {
  const size_t kN = 256, kDim = 8;
  SyntheticData data = MakeData(kN, kDim, 22);

  MbiParams serial = SmallParams(16);
  MbiParams parallel = SmallParams(16);
  parallel.num_threads = 4;

  MbiIndex a(kDim, Metric::kL2, serial);
  MbiIndex b(kDim, Metric::kL2, parallel);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(a.Add(data.vector(i), data.timestamps[i]).ok());
    ASSERT_TRUE(b.Add(data.vector(i), data.timestamps[i]).ok());
  }
  ASSERT_EQ(a.num_blocks(), b.num_blocks());
  for (size_t i = 0; i < a.num_blocks(); ++i) {
    const auto& ga = static_cast<const GraphBlockIndex&>(a.block(i));
    const auto& gb = static_cast<const GraphBlockIndex&>(b.block(i));
    EXPECT_TRUE(ga.graph() == gb.graph()) << "block " << i;
  }
}

TEST(MbiIndexTest, QueryOnPartialLeafOnlyIndex) {
  // Fewer vectors than one leaf: every query runs the exact path.
  const size_t kN = 10, kDim = 4;
  SyntheticData data = MakeData(kN, kDim, 31);
  MbiIndex index(kDim, Metric::kL2, SmallParams(/*leaf_size=*/64));
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(index.Add(data.vector(i), data.timestamps[i]).ok());
  }
  EXPECT_EQ(index.num_blocks(), 0u);

  QueryContext ctx;
  SearchParams sp;
  sp.k = 3;
  MbiQueryStats stats;
  SearchResult got =
      index.Search(data.vector(0), TimeWindow::All(), sp, &ctx, &stats);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].id, 0);  // the query vector itself
  EXPECT_EQ(stats.graph_blocks, 0u);
  EXPECT_EQ(stats.exact_blocks, 1u);
}

TEST(MbiIndexTest, EmptyIndexReturnsNothing) {
  MbiIndex index(4, Metric::kL2, SmallParams());
  QueryContext ctx;
  SearchParams sp;
  float q[4] = {0, 0, 0, 0};
  EXPECT_TRUE(index.Search(q, TimeWindow::All(), sp, &ctx).empty());
}

TEST(MbiIndexTest, ResultsRespectWindow) {
  const size_t kN = 128, kDim = 8;
  SyntheticData data = MakeData(kN, kDim, 41);
  MbiIndex index(kDim, Metric::kL2, SmallParams(16));
  ASSERT_TRUE(index.AddBatch(data.vectors.data(), data.timestamps.data(), kN)
                  .ok());
  QueryContext ctx;
  SearchParams sp;
  sp.k = 5;
  TimeWindow w{40, 90};
  for (size_t qi = 0; qi < 5; ++qi) {
    SearchResult got = index.Search(data.vector(qi), w, sp, &ctx);
    for (const Neighbor& nb : got) {
      EXPECT_TRUE(w.Contains(index.store().GetTimestamp(nb.id)));
    }
  }
}

TEST(MbiIndexTest, GraphKindRecallOnWindows) {
  const size_t kN = 1000, kDim = 16;
  SyntheticData data = MakeData(kN, kDim, 51);
  MbiParams p = SmallParams(/*leaf_size=*/128);
  p.build.degree = 12;
  MbiIndex index(kDim, Metric::kL2, p);
  ASSERT_TRUE(index.AddBatch(data.vectors.data(), data.timestamps.data(), kN)
                  .ok());
  BsbfIndex bsbf(kDim, Metric::kL2);
  ASSERT_TRUE(
      bsbf.AddBatch(data.vectors.data(), data.timestamps.data(), kN).ok());

  auto queries = GenerateQueries({.dim = kDim, .num_clusters = 8, .seed = 51},
                                 10);
  QueryContext ctx;
  SearchParams sp;
  sp.k = 10;
  sp.max_candidates = 64;
  sp.epsilon = 1.2f;
  sp.num_entry_points = 8;

  double total = 0;
  int count = 0;
  for (TimeWindow w : {TimeWindow{0, 1000}, TimeWindow{100, 800},
                       TimeWindow{450, 550}}) {
    for (size_t qi = 0; qi < 10; ++qi) {
      const float* q = queries.data() + qi * kDim;
      total += RecallAtK(index.Search(q, w, sp, &ctx), bsbf.Search(q, 10, w),
                         10);
      ++count;
    }
  }
  EXPECT_GE(total / count, 0.85);
}

// store_bytes counts each row's floats and timestamp and, in an angular
// index, the 4-byte squared norm its store keeps.
TEST(MbiIndexTest, StatsReflectStructure) {
  const size_t kN = 100, kDim = 8;
  SyntheticData data = MakeData(kN, kDim, 61);
  for (const Metric metric :
       {Metric::kL2, Metric::kAngular, Metric::kInnerProduct}) {
    SCOPED_TRACE(MetricName(metric));
    MbiIndex index(kDim, metric, SmallParams(16));
    ASSERT_TRUE(
        index.AddBatch(data.vectors.data(), data.timestamps.data(), kN).ok());
    MbiStats stats = index.GetStats();
    EXPECT_EQ(stats.num_vectors, kN);
    // 100 / 16 = 6 full leaves -> B(6) = 6 + 3 + 1 = 10 blocks.
    EXPECT_EQ(stats.num_blocks, 10u);
    EXPECT_EQ(stats.num_levels, 3u);  // heights 0, 1, 2 materialized
    EXPECT_GT(stats.index_bytes, 0u);
    const size_t norm = metric == Metric::kAngular ? sizeof(float) : 0;
    EXPECT_EQ(stats.store_bytes,
              kN * (kDim * sizeof(float) + sizeof(Timestamp) + norm));
    EXPECT_GE(stats.cumulative_build_seconds, 0.0);
  }
}

TEST(MbiIndexTest, SelectSearchBlocksMatchesShapeSelection) {
  const size_t kN = 96, kDim = 4;
  SyntheticData data = MakeData(kN, kDim, 71);
  MbiIndex index(kDim, Metric::kL2, SmallParams(16));
  ASSERT_TRUE(index.AddBatch(data.vectors.data(), data.timestamps.data(), kN)
                  .ok());
  // Timestamps are 0..n-1, so windows map 1:1 to id ranges.
  const TimeWindow window{10, 70};
  const ReadView view = index.AcquireReadView();
  const IdRange range =
      index.store().FindRangeInPrefix(window, view.num_vectors);
  EXPECT_EQ(range.begin, 10);
  EXPECT_EQ(range.end, 70);
  const std::vector<SelectedBlock> sel =
      index.SelectSearchBlocks(view, range, index.params().tau);
  ASSERT_FALSE(sel.empty());
  EXPECT_LE(sel.front().range.begin, 10);
  EXPECT_GE(sel.back().range.end, 70);

  // 96 rows in leaves of 16 leave no tail, so the planner is SelectBlocks
  // over the covered shape, at every tau.
  ASSERT_EQ(view.snapshot->covered_end, static_cast<int64_t>(kN));
  for (double tau : {0.1, 0.5, 1.0}) {
    const std::vector<SelectedBlock> want = SelectBlocks(
        BlockTreeShape(static_cast<int64_t>(kN), 16), window, tau,
        [](const IdRange& r) { return TimeWindow{r.begin, r.end}; });
    const std::vector<SelectedBlock> got =
        index.SelectSearchBlocks(view, range, tau);
    ASSERT_EQ(got.size(), want.size()) << "tau " << tau;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].node, want[i].node);
      EXPECT_EQ(got[i].range.begin, want[i].range.begin);
      EXPECT_EQ(got[i].range.end, want[i].range.end);
      EXPECT_EQ(got[i].has_graph, want[i].has_graph);
      EXPECT_DOUBLE_EQ(got[i].overlap_ratio, want[i].overlap_ratio);
    }
  }
}

TEST(MbiIndexTest, GaugesAggregateAcrossCoexistingInstances) {
  // mbi_index_vectors / mbi_index_blocks must report the sum over all live
  // instances, not whichever instance touched them last, and a destroyed
  // instance must withdraw exactly its own contribution.
  obs::Gauge* vectors =
      obs::MetricRegistry::Default().GetGauge("mbi_index_vectors");
  obs::Gauge* blocks =
      obs::MetricRegistry::Default().GetGauge("mbi_index_blocks");
  const double v0 = vectors->Value();
  const double b0 = blocks->Value();

  const size_t kN = 96, kDim = 4;
  SyntheticData data = MakeData(kN, kDim, 5);
  auto a = std::make_unique<MbiIndex>(kDim, Metric::kL2, SmallParams(16));
  ASSERT_TRUE(
      a->AddBatch(data.vectors.data(), data.timestamps.data(), kN).ok());
  EXPECT_DOUBLE_EQ(vectors->Value() - v0, 96);
  const double blocks_a = blocks->Value() - b0;
  EXPECT_GT(blocks_a, 0);

  auto b = std::make_unique<MbiIndex>(kDim, Metric::kL2, SmallParams(16));
  ASSERT_TRUE(
      b->AddBatch(data.vectors.data(), data.timestamps.data(), 48).ok());
  EXPECT_DOUBLE_EQ(vectors->Value() - v0, 96 + 48);
  EXPECT_GT(blocks->Value() - b0, blocks_a);

  a.reset();
  EXPECT_DOUBLE_EQ(vectors->Value() - v0, 48);
  b.reset();
  EXPECT_DOUBLE_EQ(vectors->Value() - v0, 0);
  EXPECT_DOUBLE_EQ(blocks->Value() - b0, 0);
}

TEST(MbiIndexTest, AllWindowEqualsWholeWindow) {
  const size_t kN = 64, kDim = 4;
  SyntheticData data = MakeData(kN, kDim, 81);
  MbiParams p = SmallParams(16);
  p.block_kind = BlockIndexKind::kFlat;
  MbiIndex index(kDim, Metric::kL2, p);
  ASSERT_TRUE(index.AddBatch(data.vectors.data(), data.timestamps.data(), kN)
                  .ok());
  QueryContext ctx;
  SearchParams sp;
  sp.k = 7;
  const TimeWindow whole{data.timestamps.front(), data.timestamps.back() + 1};
  SearchResult a = index.Search(data.vector(0), TimeWindow::All(), sp, &ctx);
  SearchResult b = index.Search(data.vector(0), whole, sp, &ctx);
  EXPECT_EQ(a.size(), sp.k);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace mbi
