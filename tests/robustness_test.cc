// Robustness and edge-case coverage across modules: duplicate timestamps,
// degenerate shapes, parameter extremes, and cross-module invariants that
// the per-module tests do not reach.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "baseline/bsbf.h"
#include "baseline/sf_index.h"
#include "data/synthetic.h"
#include "eval/recall.h"
#include "graph/exact_builder.h"
#include "graph/nndescent.h"
#include "mbi/mbi_index.h"
#include "scenario/invariants.h"
#include "shard/sharded_mbi.h"

namespace mbi {
namespace {

// ------------------------------------------------- duplicate timestamps

class DuplicateTimestampFixture : public ::testing::Test {
 protected:
  static constexpr size_t kN = 240;
  static constexpr size_t kDim = 8;

  void SetUp() override {
    SyntheticParams gen;
    gen.dim = kDim;
    gen.seed = 5150;
    data_ = GenerateSynthetic(gen, kN);
    // Many vectors share a timestamp: batches of 10 arrive "at once".
    for (size_t i = 0; i < kN; ++i) {
      data_.timestamps[i] = static_cast<Timestamp>(i / 10);
    }
  }

  SyntheticData data_;
};

TEST_F(DuplicateTimestampFixture, BsbfHandlesDuplicates) {
  BsbfIndex bsbf(kDim, Metric::kL2);
  ASSERT_TRUE(
      bsbf.AddBatch(data_.vectors.data(), data_.timestamps.data(), kN).ok());
  // Window [3, 5): exactly timestamps 3 and 4 -> ids 30..49.
  SearchResult r = bsbf.Search(data_.vector(35), 50, TimeWindow{3, 5});
  ASSERT_EQ(r.size(), 20u);
  for (const Neighbor& nb : r) {
    EXPECT_GE(nb.id, 30);
    EXPECT_LT(nb.id, 50);
  }
}

TEST_F(DuplicateTimestampFixture, MbiFlatEqualsBsbfWithDuplicates) {
  MbiParams p;
  p.leaf_size = 16;  // leaf boundaries fall inside duplicate runs
  p.tau = 0.5;
  p.block_kind = BlockIndexKind::kFlat;
  MbiIndex index(kDim, Metric::kL2, p);
  BsbfIndex bsbf(kDim, Metric::kL2);
  ASSERT_TRUE(
      index.AddBatch(data_.vectors.data(), data_.timestamps.data(), kN).ok());
  ASSERT_TRUE(
      bsbf.AddBatch(data_.vectors.data(), data_.timestamps.data(), kN).ok());

  QueryContext ctx;
  SearchParams sp;
  sp.k = 8;
  for (Timestamp a = 0; a < 24; a += 3) {
    for (Timestamp b = a + 1; b <= 24; b += 5) {
      TimeWindow w{a, b};
      SearchResult got = index.Search(data_.vector(0), w, sp, &ctx);
      SearchResult want = bsbf.Search(data_.vector(0), 8, w);
      ASSERT_EQ(got.size(), want.size()) << "[" << a << "," << b << ")";
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id);
      }
    }
  }
}

// --------------------------------------- exact differential property

// Returns "" when `got` equals `want` in ids and distance bits, else the
// first difference.
std::string DiffAnswers(const SearchResult& got, const SearchResult& want) {
  if (got.size() != want.size()) {
    return "size " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    uint32_t got_bits = 0, want_bits = 0;
    std::memcpy(&got_bits, &got[i].distance, sizeof(got_bits));
    std::memcpy(&want_bits, &want[i].distance, sizeof(want_bits));
    if (got[i].id != want[i].id || got_bits != want_bits) {
      return "rank " + std::to_string(i) + ": (" +
             std::to_string(got[i].distance) + ", " +
             std::to_string(got[i].id) + ") vs (" +
             std::to_string(want[i].distance) + ", " +
             std::to_string(want[i].id) + ")";
    }
  }
  return "";
}

// An MbiIndex over flat blocks, its checkpoint-recovered copy and a serial
// ShardedMbi over flat shards are exact, so every answer must equal
// BsbfIndex::Search in ids and distance bits. Seeded trials draw the edge
// of the input domain: every metric, duplicate timestamps that straddle
// leaves, zero rows and zero queries, negative inner-product distances,
// windows that are whole, inverted, empty, random or past the data, k above
// the window's population, any tau in (0, 1] and adaptive search on or off.
// Trial 0 is fixed: a zero angular query puts every row at distance exactly
// 1, so only the top-k tie rule decides which ids answer.
TEST(ExactDifferentialTest, FlatMbiShardedAndRecoveredEqualBsbf) {
  constexpr int kTrials = 60;
  constexpr int kQueries = 40;
  const Metric kMetrics[] = {Metric::kL2, Metric::kAngular,
                             Metric::kInnerProduct};
  Rng rng(0xD1FF2210);
  size_t checked = 0;
  size_t failures = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const bool all_tied = trial == 0;
    const Metric metric = all_tied ? Metric::kAngular : kMetrics[trial % 3];
    const size_t dim = all_tied ? 8 : 1 + rng.NextBounded(16);
    const size_t n = all_tied ? 200 : 1 + rng.NextBounded(300);
    const int64_t leaf = all_tied ? 16 : 1 + rng.NextBounded(40);
    const bool adaptive = rng.NextBounded(2) == 1;

    // Rows: Gaussian, or drawn from a few repeating patterns (exact
    // duplicate distances), with some zero rows; inner-product rows lean
    // positive so most distances are negative.
    const size_t period = rng.NextBounded(2) == 1 ? 1 + rng.NextBounded(7) : 0;
    const double zero_share = rng.NextBounded(3) == 0 ? 0.2 : 0.0;
    const float shift = metric == Metric::kInnerProduct ? 0.75f : 0.0f;
    std::vector<float> rows(n * dim);
    for (size_t i = 0; i < n; ++i) {
      float* row = &rows[i * dim];
      if (rng.NextDouble() < zero_share) {
        std::fill(row, row + dim, 0.0f);
      } else if (period > 0 && i >= period) {
        std::copy(row - period * dim, row - (period - 1) * dim, row);
      } else {
        for (size_t d = 0; d < dim; ++d) {
          row[d] = static_cast<float>(rng.NextGaussian()) + shift;
        }
      }
    }
    // Non-negative, non-decreasing timestamps with runs of duplicates that
    // straddle leaf boundaries.
    const double repeat = rng.NextBounded(2) == 1 ? 0.8 : 0.4;
    std::vector<Timestamp> ts(n);
    ts[0] = static_cast<Timestamp>(rng.NextBounded(4));
    for (size_t i = 1; i < n; ++i) {
      ts[i] = ts[i - 1];
      if (rng.NextDouble() >= repeat) {
        ts[i] += 1 + static_cast<Timestamp>(rng.NextBounded(3));
      }
    }
    const Timestamp t_lo = ts.front();
    const Timestamp t_hi = ts.back();

    BsbfIndex bsbf(dim, metric);
    ASSERT_TRUE(bsbf.AddBatch(rows.data(), ts.data(), n).ok());
    MbiParams p;
    p.leaf_size = leaf;
    p.block_kind = BlockIndexKind::kFlat;
    p.adaptive_block_search = adaptive;
    MbiIndex index(dim, metric, p);
    ASSERT_TRUE(index.AddBatch(rows.data(), ts.data(), n).ok());

    shard::ShardedMbiParams sp_params;
    sp_params.shard_span =
        1 + t_hi / 16 +
        static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(t_hi) + 2));
    sp_params.shard = p;
    sp_params.num_search_threads = 0;  // serial fan-out
    shard::ShardedMbi sharded(dim, metric, sp_params);
    ASSERT_TRUE(sharded.AddBatch(rows.data(), ts.data(), n).ok());

    // Every tenth trial, the recovered copy must answer identically.
    std::unique_ptr<MbiIndex> recovered;
    std::string dir;
    if (trial % 10 == 0) {
      dir = (std::filesystem::temp_directory_path() /
             ("mbi_exact_differential_" + std::to_string(::getpid()) + "_" +
              std::to_string(trial)))
                .string();
      std::filesystem::remove_all(dir);
      ASSERT_TRUE(index.Checkpoint(dir).ok());
      auto r = MbiIndex::Recover(dir);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      recovered = std::move(r).value();
    }

    QueryContext ctx(static_cast<uint64_t>(trial) + 1);
    std::vector<float> query(dim);
    for (int qi = 0; qi < kQueries; ++qi) {
      if (all_tied || rng.NextBounded(6) == 0) {
        std::fill(query.begin(), query.end(), 0.0f);
      } else {
        const size_t base = rng.NextBounded(n);
        for (size_t d = 0; d < dim; ++d) {
          query[d] = rows[base * dim + d] +
                     (rng.NextBounded(2) == 1
                          ? static_cast<float>(rng.NextGaussian())
                          : 0.0f);
        }
      }
      // Window ends fall in [t_lo - 2, t_hi + 2].
      const uint64_t ends = static_cast<uint64_t>(t_hi - t_lo) + 5;
      const Timestamp a = t_lo - 2 + static_cast<int64_t>(rng.NextBounded(ends));
      const Timestamp b = t_lo - 2 + static_cast<int64_t>(rng.NextBounded(ends));
      TimeWindow window;
      switch (rng.NextBounded(8)) {
        case 0: window = TimeWindow::All(); break;
        case 1: window = TimeWindow{std::max(a, b), std::min(a, b)}; break;
        case 2: window = TimeWindow{a, a}; break;
        case 3: window = TimeWindow{t_hi + 1, t_hi + 4 + b - t_lo}; break;
        default: window = TimeWindow{std::min(a, b), std::max(a, b) + 1};
      }
      SearchParams search;
      search.k = 1 + rng.NextBounded(20);
      const double tau = static_cast<double>(1 + rng.NextBounded(1000)) / 1000;

      const SearchResult want = bsbf.Search(query.data(), search.k, window);
      auto check = [&](const char* who, const SearchResult& got) {
        ++checked;
        const std::string diff = DiffAnswers(got, want);
        if (diff.empty()) return;
        if (++failures <= 10) {
          ADD_FAILURE() << who << " differs from BSBF: trial " << trial
                        << " metric " << MetricName(metric) << " dim " << dim
                        << " n " << n << " leaf " << leaf << " adaptive "
                        << adaptive << " window [" << window.start << ", "
                        << window.end << ") k " << search.k << " tau " << tau
                        << ": " << diff;
        }
      };
      check("MbiIndex", index.SearchView(index.AcquireReadView(), query.data(),
                                         window, search, tau, &ctx));
      if (recovered != nullptr) {
        check("recovered MbiIndex",
              recovered->SearchView(recovered->AcquireReadView(),
                                    query.data(), window, search, tau, &ctx));
      }
      auto s = sharded.Search(query.data(), window, search, &ctx);
      ASSERT_TRUE(s.ok()) << s.status().ToString();
      check("ShardedMbi", s.value());
    }
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
  EXPECT_EQ(failures, 0u) << "of " << checked << " answers";
  EXPECT_GT(checked, static_cast<size_t>(2 * kTrials * kQueries));
}

// k above the window, up to SIZE_MAX, is a defined input: the answer is at
// most the window, and nothing may reserve k entries up front (2^40 of them
// is 16 TiB; SIZE_MAX makes vector::reserve throw). Every path's answer must
// pass the scenario validity check, and the exact paths must return the
// whole window in BSBF order: flat blocks, BSBF, and adaptive graph blocks,
// whose candidate pool of at least 2k costs more than scanning any block,
// so every block falls back to the scan, also where 2k would wrap.
TEST(HugeKTest, EveryPathAnswersWithAtMostTheWindow) {
  constexpr size_t kN = 1000;
  constexpr size_t kDim = 8;
  SyntheticParams gen;
  gen.dim = kDim;
  gen.seed = 2040;
  const SyntheticData data = GenerateSynthetic(gen, kN);
  const TimeWindow window{700, 950};  // timestamps are 0..n-1: 250 rows
  const float* query = data.vector(800);
  BsbfIndex bsbf(kDim, Metric::kL2);
  ASSERT_TRUE(
      bsbf.AddBatch(data.vectors.data(), data.timestamps.data(), kN).ok());
  const size_t in_window = 250;
  const SearchResult whole =
      BsbfIndex::Query(bsbf.store(), query, in_window, window);
  ASSERT_EQ(whole.size(), in_window);

  enum class Kind { kFlat, kGraph, kAdaptiveGraph };
  for (const Kind kind : {Kind::kFlat, Kind::kGraph, Kind::kAdaptiveGraph}) {
    MbiParams p;
    p.leaf_size = 64;
    p.build.degree = 8;
    p.block_kind =
        kind == Kind::kFlat ? BlockIndexKind::kFlat : BlockIndexKind::kGraph;
    p.adaptive_block_search = kind == Kind::kAdaptiveGraph;
    MbiIndex index(kDim, Metric::kL2, p);
    ASSERT_TRUE(
        index.AddBatch(data.vectors.data(), data.timestamps.data(), kN).ok());
    shard::ShardedMbiParams sp_params;
    sp_params.shard_span = 300;
    sp_params.shard = p;
    sp_params.num_search_threads = 0;  // serial fan-out
    shard::ShardedMbi sharded(kDim, Metric::kL2, sp_params);
    ASSERT_TRUE(
        sharded.AddBatch(data.vectors.data(), data.timestamps.data(), kN)
            .ok());

    for (const size_t k : {in_window + 1, size_t{1} << 40, SIZE_MAX}) {
      SearchParams search;
      search.k = k;
      QueryContext ctx(7);
      auto sharded_answer = sharded.Search(query, window, search, &ctx);
      ASSERT_TRUE(sharded_answer.ok()) << sharded_answer.status().ToString();
      struct Answer {
        const char* who;
        SearchResult got;
        bool exact;
      };
      const bool scans = kind != Kind::kGraph;
      const Answer answers[] = {
          {"MbiIndex::Search", index.Search(query, window, search, &ctx),
           scans},
          {"SearchView",
           index.SearchView(index.AcquireReadView(), query, window, search,
                            /*tau=*/0.5, &ctx),
           scans},
          {"ShardedMbi::Search", std::move(sharded_answer).value(), scans},
          {"BsbfIndex::Query",
           BsbfIndex::Query(bsbf.store(), query, k, window), true},
      };
      for (const auto& [who, got, exact] : answers) {
        SCOPED_TRACE(std::string(who) + " kind " +
                     std::to_string(static_cast<int>(kind)) + " k " +
                     std::to_string(k));
        EXPECT_EQ(got.completion, Completion::kComplete);
        EXPECT_EQ(scenario::CheckResultValidity(bsbf.store(), kN, window,
                                                query, k, got),
                  "");
        if (exact) {
          EXPECT_EQ(DiffAnswers(got, whole), "");
        } else {
          // Algorithm 2 with R never full walks every vertex it reaches.
          EXPECT_GE(got.size(), in_window - in_window / 10);
        }
      }
    }
  }
}

TEST_F(DuplicateTimestampFixture, GraphKindRespectsDuplicateWindows) {
  MbiParams p;
  p.leaf_size = 30;
  p.build.degree = 8;
  p.build.exact_threshold = 1 << 20;
  MbiIndex index(kDim, Metric::kL2, p);
  ASSERT_TRUE(
      index.AddBatch(data_.vectors.data(), data_.timestamps.data(), kN).ok());
  QueryContext ctx;
  SearchParams sp;
  sp.k = 10;
  sp.max_candidates = 48;
  TimeWindow w{7, 12};
  SearchResult got = index.Search(data_.vector(0), w, sp, &ctx);
  for (const Neighbor& nb : got) {
    Timestamp t = index.store().GetTimestamp(nb.id);
    EXPECT_GE(t, 7);
    EXPECT_LT(t, 12);
  }
}

// ------------------------------------------------- NNDescent parameters

TEST(NnDescentParamsTest, MoreIterationsNeverHurtMuch) {
  SyntheticParams gen;
  gen.dim = 12;
  gen.seed = 21;
  SyntheticData data = GenerateSynthetic(gen, 1200);
  DistanceFunction dist(Metric::kL2, 12);
  KnnGraph exact = BuildExactKnnGraph(data.vectors.data(), 1200, dist, 12);

  auto edge_recall = [&](const KnnGraph& g) {
    size_t hits = 0, total = 0;
    for (NodeId v = 0; v < 1200; ++v) {
      auto a = g.Neighbors(v);
      for (NodeId t : exact.Neighbors(v)) {
        if (t == kInvalidNode) continue;
        ++total;
        hits += std::find(a.begin(), a.end(), t) != a.end();
      }
    }
    return static_cast<double>(hits) / total;
  };

  GraphBuildParams p1;
  p1.degree = 12;
  p1.max_iterations = 1;
  GraphBuildParams p8 = p1;
  p8.max_iterations = 8;
  double r1 = edge_recall(BuildNnDescentGraph(data.vectors.data(), 1200, dist, p1));
  double r8 = edge_recall(BuildNnDescentGraph(data.vectors.data(), 1200, dist, p8));
  EXPECT_GT(r8, r1);      // iterating improves the graph
  EXPECT_GE(r8, 0.85);
}

TEST(NnDescentParamsTest, HigherRhoConvergesFaster) {
  SyntheticParams gen;
  gen.dim = 8;
  gen.seed = 22;
  SyntheticData data = GenerateSynthetic(gen, 800);
  DistanceFunction dist(Metric::kL2, 8);
  GraphBuildParams low;
  low.degree = 10;
  low.rho = 0.3;
  low.max_iterations = 3;
  GraphBuildParams high = low;
  high.rho = 1.0;
  KnnGraph exact = BuildExactKnnGraph(data.vectors.data(), 800, dist, 10);
  auto edge_recall = [&](const KnnGraph& g) {
    size_t hits = 0, total = 0;
    for (NodeId v = 0; v < 800; ++v) {
      auto a = g.Neighbors(v);
      for (NodeId t : exact.Neighbors(v)) {
        if (t == kInvalidNode) continue;
        ++total;
        hits += std::find(a.begin(), a.end(), t) != a.end();
      }
    }
    return static_cast<double>(hits) / total;
  };
  EXPECT_GE(edge_recall(BuildNnDescentGraph(data.vectors.data(), 800, dist,
                                            high)) +
                0.02,
            edge_recall(BuildNnDescentGraph(data.vectors.data(), 800, dist,
                                            low)));
}

// ------------------------------------------------- search parameters

class SearchParamFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticParams gen;
    gen.dim = 16;
    gen.seed = 4242;
    data_ = GenerateSynthetic(gen, 1500);
    store_ = std::make_unique<VectorStore>(16, Metric::kL2);
    ASSERT_TRUE(store_
                    ->AppendBatch(data_.vectors.data(),
                                  data_.timestamps.data(), 1500)
                    .ok());
    graph_ = BuildExactKnnGraph(data_.vectors.data(), 1500, store_->distance(),
                                16);
    queries_ = GenerateQueries(gen, 20);
  }

  double MeanRecallWith(const SearchParams& p) {
    GraphSearcher searcher;
    Rng rng(1);
    double total = 0;
    for (size_t qi = 0; qi < 20; ++qi) {
      const float* q = queries_.data() + qi * 16;
      TopKHeap heap(p.k);
      searcher.Search(*store_, graph_, IdRange{0, 1500}, q, p, nullptr, &rng,
                      &heap);
      total += RecallAtK(heap.ExtractSorted(),
                         BsbfIndex::Query(*store_, q, p.k, TimeWindow::All()),
                         p.k);
    }
    return total / 20;
  }

  SyntheticData data_;
  std::unique_ptr<VectorStore> store_;
  KnnGraph graph_;
  std::vector<float> queries_;
};

TEST_F(SearchParamFixture, LargerCandidatePoolRaisesRecall) {
  SearchParams small;
  small.k = 10;
  small.max_candidates = 12;
  small.num_entry_points = 4;
  SearchParams large = small;
  large.max_candidates = 128;
  EXPECT_GT(MeanRecallWith(large), MeanRecallWith(small));
  EXPECT_GE(MeanRecallWith(large), 0.95);
}

TEST_F(SearchParamFixture, PoolSmallerThanKIsClampedToK) {
  SearchParams p;
  p.k = 20;
  p.max_candidates = 4;  // < k: capacity must clamp up to k
  p.num_entry_points = 4;
  GraphSearcher searcher;
  Rng rng(2);
  TopKHeap heap(20);
  searcher.Search(*store_, graph_, IdRange{0, 1500}, queries_.data(), p,
                  nullptr, &rng, &heap);
  EXPECT_EQ(heap.size(), 20u);
}

TEST_F(SearchParamFixture, ManyEntryPointsClampToBlockSize) {
  SearchParams p;
  p.k = 5;
  p.max_candidates = 2000;   // > n
  p.num_entry_points = 5000;  // > n
  GraphSearcher searcher;
  Rng rng(3);
  TopKHeap heap(5);
  // Must terminate and return k results despite params exceeding n.
  searcher.Search(*store_, graph_, IdRange{0, 1500}, queries_.data(), p,
                  nullptr, &rng, &heap);
  EXPECT_EQ(heap.size(), 5u);
}

// ------------------------------------------------- tree partition property

TEST(BlockTreePartitionTest, EachLevelPartitionsTheData) {
  for (int64_t n : {64, 100, 250, 1023}) {
    BlockTreeShape shape(n, 16);
    for (int32_t h = 0; h <= shape.root_height(); ++h) {
      int64_t covered = 0;
      for (int64_t pos = 0;; ++pos) {
        IdRange r = shape.NodeRange({h, pos});
        if (r.Empty()) break;
        EXPECT_EQ(r.begin, covered);  // contiguous, gap-free
        covered = r.end;
      }
      EXPECT_EQ(covered, n) << "level " << h << " n " << n;
    }
  }
}

TEST(BlockTreePartitionTest, ParentRangeIsUnionOfChildren) {
  BlockTreeShape shape(1000, 13);
  for (int32_t h = 1; h <= shape.root_height(); ++h) {
    for (int64_t pos = 0; pos < 8; ++pos) {
      IdRange parent = shape.NodeRange({h, pos});
      IdRange left = shape.NodeRange({h - 1, 2 * pos});
      IdRange right = shape.NodeRange({h - 1, 2 * pos + 1});
      if (parent.Empty()) continue;
      EXPECT_EQ(parent.begin, left.begin);
      EXPECT_EQ(parent.end, right.Empty() ? left.end : right.end);
    }
  }
}

// ------------------------------------------------- misc index edge cases

TEST(MbiEdgeTest, LeafSizeOneWorks) {
  MbiParams p;
  p.leaf_size = 1;
  p.build.degree = 4;
  p.build.exact_threshold = 1 << 20;
  MbiIndex index(4, Metric::kL2, p);
  SyntheticParams gen;
  gen.dim = 4;
  SyntheticData data = GenerateSynthetic(gen, 33);
  ASSERT_TRUE(
      index.AddBatch(data.vectors.data(), data.timestamps.data(), 33).ok());
  EXPECT_EQ(static_cast<int64_t>(index.num_blocks()),
            BlockTreeShape::BlocksForLeaves(33));
  QueryContext ctx;
  SearchParams sp;
  sp.k = 3;
  SearchResult r = index.Search(data.vector(5), TimeWindow{0, 33}, sp, &ctx);
  ASSERT_FALSE(r.empty());
  EXPECT_EQ(r[0].id, 5);
}

TEST(MbiEdgeTest, SingleVectorIndex) {
  MbiParams p;
  p.leaf_size = 8;
  MbiIndex index(3, Metric::kL2, p);
  float v[3] = {1, 2, 3};
  ASSERT_TRUE(index.Add(v, 100).ok());
  QueryContext ctx;
  SearchParams sp;
  sp.k = 5;
  SearchResult r = index.Search(v, TimeWindow{100, 101}, sp, &ctx);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].id, 0);
  EXPECT_TRUE(index.Search(v, TimeWindow{101, 200}, sp, &ctx).empty());
  EXPECT_TRUE(index.Search(v, TimeWindow{0, 100}, sp, &ctx).empty());
}

TEST(MbiEdgeTest, KLargerThanData) {
  MbiParams p;
  p.leaf_size = 4;
  p.build.degree = 4;
  p.build.exact_threshold = 1 << 20;
  MbiIndex index(2, Metric::kL2, p);
  for (int i = 0; i < 10; ++i) {
    float v[2] = {static_cast<float>(i), 0};
    ASSERT_TRUE(index.Add(v, i).ok());
  }
  QueryContext ctx;
  SearchParams sp;
  sp.k = 50;
  sp.max_candidates = 64;
  sp.epsilon = 1.4f;
  sp.num_entry_points = 8;
  float q[2] = {5, 0};
  SearchResult r = index.Search(q, TimeWindow::All(), sp, &ctx);
  // Graph search is approximate, but with entries >= n it must find all 10.
  EXPECT_EQ(r.size(), 10u);
}

TEST(MbiEdgeTest, NegativeTimestampsWork) {
  MbiParams p;
  p.leaf_size = 4;
  p.block_kind = BlockIndexKind::kFlat;
  MbiIndex index(2, Metric::kL2, p);
  for (int i = 0; i < 12; ++i) {
    float v[2] = {static_cast<float>(i), 0};
    ASSERT_TRUE(index.Add(v, i - 100).ok());  // timestamps -100..-89
  }
  QueryContext ctx;
  SearchParams sp;
  sp.k = 3;
  SearchResult r = index.Search(index.store().GetVector(3),
                                TimeWindow{-98, -94}, sp, &ctx);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].id, 3);
}

TEST(MbiEdgeTest, InvertedWindowReturnsNothing) {
  MbiParams p;
  p.leaf_size = 4;
  MbiIndex index(2, Metric::kL2, p);
  float v[2] = {0, 0};
  ASSERT_TRUE(index.Add(v, 5).ok());
  QueryContext ctx;
  SearchParams sp;
  EXPECT_TRUE(index.Search(v, TimeWindow{10, 5}, sp, &ctx).empty());
}

// ------------------------------------- input validation at the API boundary

class InputValidationFixture : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 4;

  void SetUp() override {
    for (int i = 0; i < 20; ++i) {
      for (size_t d = 0; d < kDim; ++d) {
        good_.push_back(static_cast<float>(i + 1) * 0.25f +
                        static_cast<float>(d));
      }
      ts_.push_back(i);
    }
    nan_query_.assign(kDim, 1.0f);
    nan_query_[2] = std::numeric_limits<float>::quiet_NaN();
    inf_query_.assign(kDim, 1.0f);
    inf_query_[0] = std::numeric_limits<float>::infinity();
  }

  std::vector<float> good_, nan_query_, inf_query_;
  std::vector<Timestamp> ts_;
};

TEST_F(InputValidationFixture, AddRejectsNonFiniteVectors) {
  MbiParams p;
  p.leaf_size = 4;
  MbiIndex index(kDim, Metric::kL2, p);
  EXPECT_EQ(index.Add(nan_query_.data(), 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(index.Add(inf_query_.data(), 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(index.size(), 0u);  // nothing partially applied

  BsbfIndex bsbf(kDim, Metric::kL2);
  EXPECT_EQ(bsbf.Add(nan_query_.data(), 0).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(InputValidationFixture, AddBatchReportsRowsDurablyApplied) {
  MbiParams p;
  p.leaf_size = 4;
  MbiIndex index(kDim, Metric::kL2, p);

  // Poison row 13 of 20: the first 13 rows stay applied and are queryable.
  std::vector<float> batch = good_;
  batch[13 * kDim + 1] = std::numeric_limits<float>::quiet_NaN();
  size_t applied = 999;
  Status s = index.AddBatch(batch.data(), ts_.data(), ts_.size(), false,
                            &applied);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(applied, 13u);
  EXPECT_EQ(index.size(), 13u);
  EXPECT_NE(s.message().find("13 rows durably applied"), std::string::npos)
      << s.message();

  QueryContext ctx;
  SearchParams sp;
  sp.k = 3;
  SearchResult r = index.Search(good_.data(), TimeWindow::All(), sp, &ctx);
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.completion, Completion::kComplete);
}

TEST_F(InputValidationFixture, SearchRejectsNonFiniteQueriesEverywhere) {
  MbiParams p;
  p.leaf_size = 4;
  MbiIndex index(kDim, Metric::kL2, p);
  ASSERT_TRUE(index.AddBatch(good_.data(), ts_.data(), ts_.size()).ok());
  QueryContext ctx;
  SearchParams sp;
  sp.k = 3;
  SearchResult r = index.Search(nan_query_.data(), TimeWindow::All(), sp,
                                &ctx);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.completion, Completion::kInvalidArgument);
  r = index.Search(inf_query_.data(), TimeWindow::All(), sp, &ctx);
  EXPECT_EQ(r.completion, Completion::kInvalidArgument);

  BsbfIndex bsbf(kDim, Metric::kL2);
  ASSERT_TRUE(bsbf.AddBatch(good_.data(), ts_.data(), ts_.size()).ok());
  SearchResult b = bsbf.Search(nan_query_.data(), 3, TimeWindow::All());
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.completion, Completion::kInvalidArgument);

  GraphBuildParams gp;
  gp.degree = 4;
  SfIndex sf(kDim, Metric::kL2, gp);
  ASSERT_TRUE(sf.AddBatch(good_.data(), ts_.data(), ts_.size()).ok());
  sf.Build();
  SearchResult f = sf.Search(inf_query_.data(), TimeWindow::All(), sp, &ctx);
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.completion, Completion::kInvalidArgument);
}

TEST_F(InputValidationFixture, DegenerateQueryParamsGiveEmptyCompleteResult) {
  MbiParams p;
  p.leaf_size = 4;
  MbiIndex index(kDim, Metric::kL2, p);
  ASSERT_TRUE(index.AddBatch(good_.data(), ts_.data(), ts_.size()).ok());
  QueryContext ctx;

  // k == 0 asks for nothing — trivially complete, not an error.
  SearchParams sp;
  sp.k = 0;
  SearchResult r = index.Search(good_.data(), TimeWindow::All(), sp, &ctx);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.completion, Completion::kComplete);

  // An inverted window holds no vectors — same contract.
  sp.k = 3;
  r = index.Search(good_.data(), TimeWindow{10, 2}, sp, &ctx);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.completion, Completion::kComplete);

  // BSBF honors the same contract for k == 0.
  BsbfIndex bsbf(kDim, Metric::kL2);
  ASSERT_TRUE(bsbf.AddBatch(good_.data(), ts_.data(), ts_.size()).ok());
  SearchResult b = bsbf.Search(good_.data(), 0, TimeWindow::All());
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.completion, Completion::kComplete);
}

}  // namespace
}  // namespace mbi
