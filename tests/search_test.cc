// Algorithm 2 (time-filtered best-first graph search): filter correctness,
// full-window recall vs exact scan, short-window behavior, stats.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/bsbf.h"
#include "core/topk.h"
#include "core/vector_store.h"
#include "data/synthetic.h"
#include "eval/recall.h"
#include "graph/exact_builder.h"
#include "graph/nndescent.h"
#include "graph/search.h"
#include "util/rng.h"

namespace mbi {
namespace {

class SearchFixture : public ::testing::Test {
 protected:
  static constexpr size_t kN = 2000;
  static constexpr size_t kDim = 16;

  void SetUp() override {
    SyntheticParams gen;
    gen.dim = kDim;
    gen.num_clusters = 12;
    gen.seed = 42;
    data_ = GenerateSynthetic(gen, kN);
    store_ = std::make_unique<VectorStore>(kDim, Metric::kL2);
    ASSERT_TRUE(store_
                    ->AppendBatch(data_.vectors.data(),
                                  data_.timestamps.data(), kN)
                    .ok());
    graph_ = BuildExactKnnGraph(data_.vectors.data(), kN, store_->distance(),
                                16);
    queries_ = GenerateQueries(gen, 20);
  }

  SearchResult Run(const float* q, const SearchParams& p,
                   const TimeWindow* w, SearchStats* stats = nullptr) {
    TopKHeap heap(p.k);
    Rng rng(7);
    IdRange filter;
    const IdRange* id_filter = nullptr;
    if (w != nullptr) {
      filter = store_->FindRange(*w);
      id_filter = &filter;
    }
    searcher_.Search(*store_, graph_, IdRange{0, kN}, q, p, id_filter, &rng,
                     &heap, stats);
    return heap.ExtractSorted();
  }

  SyntheticData data_;
  std::unique_ptr<VectorStore> store_;
  KnnGraph graph_;
  std::vector<float> queries_;
  GraphSearcher searcher_;
};

TEST_F(SearchFixture, UnfilteredSearchHasHighRecall) {
  SearchParams p;
  p.k = 10;
  p.max_candidates = 64;
  p.epsilon = 1.2f;
  p.num_entry_points = 8;
  double total = 0;
  for (size_t qi = 0; qi < 20; ++qi) {
    const float* q = queries_.data() + qi * kDim;
    SearchResult got = Run(q, p, nullptr);
    SearchResult truth = BsbfIndex::Query(*store_, q, 10, TimeWindow::All());
    total += RecallAtK(got, truth, 10);
  }
  EXPECT_GE(total / 20, 0.9);
}

TEST_F(SearchFixture, AllResultsRespectTimeWindow) {
  SearchParams p;
  p.k = 10;
  p.max_candidates = 64;
  p.num_entry_points = 4;
  TimeWindow w{500, 1200};
  for (size_t qi = 0; qi < 10; ++qi) {
    SearchResult got = Run(queries_.data() + qi * kDim, p, &w);
    for (const Neighbor& nb : got) {
      EXPECT_TRUE(w.Contains(store_->GetTimestamp(nb.id)))
          << "id " << nb.id << " ts " << store_->GetTimestamp(nb.id);
    }
  }
}

TEST_F(SearchFixture, ReturnsKResultsWhenWindowIsLarge) {
  SearchParams p;
  p.k = 10;
  p.max_candidates = 64;
  p.epsilon = 1.2f;
  p.num_entry_points = 4;
  TimeWindow w{100, 1900};
  for (size_t qi = 0; qi < 10; ++qi) {
    SearchResult got = Run(queries_.data() + qi * kDim, p, &w);
    EXPECT_EQ(got.size(), 10u);
  }
}

TEST_F(SearchFixture, FilteredRecallVsExact) {
  SearchParams p;
  p.k = 10;
  p.max_candidates = 96;
  p.epsilon = 1.3f;
  p.num_entry_points = 8;
  TimeWindow w{400, 1600};
  double total = 0;
  for (size_t qi = 0; qi < 20; ++qi) {
    const float* q = queries_.data() + qi * kDim;
    SearchResult got = Run(q, p, &w);
    SearchResult truth = BsbfIndex::Query(*store_, q, 10, w);
    total += RecallAtK(got, truth, 10);
  }
  EXPECT_GE(total / 20, 0.8);
}

TEST_F(SearchFixture, ResultsSortedAscending) {
  SearchParams p;
  p.k = 20;
  p.max_candidates = 64;
  SearchResult got = Run(queries_.data(), p, nullptr);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LE(got[i - 1].distance, got[i].distance);
  }
}

TEST_F(SearchFixture, StatsAreCounted) {
  SearchParams p;
  p.k = 5;
  p.max_candidates = 32;
  SearchStats stats;
  Run(queries_.data(), p, nullptr, &stats);
  EXPECT_GT(stats.nodes_expanded, 0u);
  EXPECT_GT(stats.distance_evaluations, stats.nodes_expanded);
}

TEST_F(SearchFixture, ShortWindowExpandsMoreThanLongWindow) {
  // The paper's core observation about SF: short windows force the search to
  // explore a much larger region (Section 3.2.2).
  SearchParams p;
  p.k = 10;
  p.max_candidates = 64;
  p.epsilon = 1.1f;
  p.num_entry_points = 4;
  TimeWindow short_w{980, 1030};  // ~50 vectors
  TimeWindow long_w{0, 2000};
  size_t short_total = 0, long_total = 0;
  for (size_t qi = 0; qi < 10; ++qi) {
    SearchStats s1, s2;
    Run(queries_.data() + qi * kDim, p, &short_w, &s1);
    Run(queries_.data() + qi * kDim, p, &long_w, &s2);
    short_total += s1.nodes_expanded;
    long_total += s2.nodes_expanded;
  }
  EXPECT_GT(short_total, long_total);
}

TEST_F(SearchFixture, HigherEpsilonNeverLowersRecallMuch) {
  SearchParams p;
  p.k = 10;
  p.max_candidates = 64;
  p.num_entry_points = 4;
  TimeWindow w{200, 1800};
  double recall_low = 0, recall_high = 0;
  for (size_t qi = 0; qi < 20; ++qi) {
    const float* q = queries_.data() + qi * kDim;
    SearchResult truth = BsbfIndex::Query(*store_, q, 10, w);
    p.epsilon = 1.0f;
    recall_low += RecallAtK(Run(q, p, &w), truth, 10);
    p.epsilon = 1.4f;
    recall_high += RecallAtK(Run(q, p, &w), truth, 10);
  }
  EXPECT_GE(recall_high + 0.05, recall_low);
}

TEST_F(SearchFixture, EmptyWindowReturnsNothing) {
  SearchParams p;
  p.k = 10;
  p.max_candidates = 64;
  TimeWindow w{5000, 6000};  // beyond all timestamps
  SearchResult got = Run(queries_.data(), p, &w);
  EXPECT_TRUE(got.empty());
}

// Regression for the epsilon range restriction with signed distances: the
// bound must *loosen* max(R) under every metric. Inner-product distances are
// negative, where multiplying by epsilon > 1 used to tighten the bound and
// reject nearly all neighbors once R filled up.
class EpsilonMetricTest : public ::testing::TestWithParam<Metric> {};

TEST_P(EpsilonMetricTest, EpsilonKeepsRecallForEveryMetric) {
  const Metric metric = GetParam();
  const size_t n = 800, dim = 8;
  SyntheticParams gen;
  gen.dim = dim;
  gen.seed = 99;
  SyntheticData data = GenerateSynthetic(gen, n);
  VectorStore store(dim, metric);
  ASSERT_TRUE(
      store.AppendBatch(data.vectors.data(), data.timestamps.data(), n).ok());
  KnnGraph graph =
      BuildExactKnnGraph(data.vectors.data(), n, store.distance(), 14);
  std::vector<float> queries = GenerateQueries(gen, 10);

  SearchParams p;
  p.k = 10;
  p.max_candidates = 64;
  p.epsilon = 1.3f;
  p.num_entry_points = 6;
  const TimeWindow w{50, 750};

  GraphSearcher searcher;
  double total = 0;
  for (size_t qi = 0; qi < 10; ++qi) {
    const float* q = queries.data() + qi * dim;
    const IdRange filter = store.FindRange(w);
    TopKHeap heap(p.k);
    Rng rng(7);
    searcher.Search(store, graph, IdRange{0, static_cast<VectorId>(n)}, q, p,
                    &filter, &rng, &heap);
    SearchResult truth = BsbfIndex::Query(store, q, p.k, w);
    total += RecallAtK(heap.ExtractSorted(), truth, p.k);
  }
  EXPECT_GE(total / 10, 0.8) << "metric " << static_cast<int>(metric);
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, EpsilonMetricTest,
                         ::testing::Values(Metric::kL2, Metric::kAngular,
                                           Metric::kInnerProduct));

// Each block search scores a vertex at most once: a neighbor the epsilon
// bound refuses stays marked, so later expansions that link to it skip it.
// Because max(R) only falls once R is full, the refused neighbor would be
// refused again, so the answers must equal those of a search that scores
// it at every link. The digest holds that search's answers; it scores more
// than the 300 vertices in 46 of these 100 searches, up to 521 times.
TEST(GraphSearcherTest, ScoresEachVertexOnceWithUnchangedResults) {
  const size_t n = 300, dim = 16;
  SyntheticParams gen;
  gen.dim = dim;
  gen.num_clusters = 12;
  gen.seed = 42;
  SyntheticData data = GenerateSynthetic(gen, n);
  VectorStore store(dim, Metric::kL2);
  ASSERT_TRUE(
      store.AppendBatch(data.vectors.data(), data.timestamps.data(), n).ok());
  KnnGraph graph =
      BuildExactKnnGraph(data.vectors.data(), n, store.distance(), 16);
  std::vector<float> queries = GenerateQueries(gen, 50);

  SearchParams p;
  p.k = 10;
  p.max_candidates = 64;
  const IdRange filter{100, 130};
  GraphSearcher searcher;
  uint64_t digest = 0xCBF29CE484222325ULL;
  auto fold = [&digest](uint64_t x) {
    digest ^= x;
    digest *= 0x100000001B3ULL;
  };
  for (float epsilon : {1.0f, 1.4f}) {
    p.epsilon = epsilon;
    for (size_t qi = 0; qi < 50; ++qi) {
      TopKHeap heap(p.k);
      Rng rng(7);
      SearchStats stats;
      searcher.Search(store, graph, IdRange{0, static_cast<VectorId>(n)},
                      queries.data() + qi * dim, p,
                      qi % 2 == 1 ? &filter : nullptr, &rng, &heap, &stats);
      EXPECT_LE(stats.distance_evaluations, n)
          << "epsilon " << epsilon << " query " << qi;
      for (const Neighbor& nb : heap.ExtractSorted()) {
        fold(static_cast<uint64_t>(nb.id));
        fold(std::bit_cast<uint32_t>(nb.distance));
      }
    }
  }
  EXPECT_EQ(digest, 0x142e0f75839a379eULL) << std::hex << digest;
}

// Pins Algorithm 2's work as well as its answers: ids, distance bits and
// the four SearchStats counters of every search fold into one digest. The
// grid covers each metric, exact and NNDescent graphs, unfiltered, short
// and long filters, M_C 8, 48 and 192, and rows with and without ties
// (rows rounded to a coarse integer grid, some of them zero, tie often).
// A change to the candidate pool or the kernels that keeps the answers but
// changes how many vertices are scored, expanded or refused moves it.
TEST(GraphSearcherTest, AnswersAndCountersArePinned) {
  const size_t n = 600, dim = 16;
  SyntheticParams gen;
  gen.dim = dim;
  gen.num_clusters = 10;
  gen.seed = 31;
  const SyntheticData data = GenerateSynthetic(gen, n);
  const std::vector<float> queries = GenerateQueries(gen, 8);
  std::vector<float> tied = data.vectors;
  for (float& x : tied) x = std::round(x);
  std::vector<float> tied_queries = queries;
  for (float& x : tied_queries) x = std::round(x);

  const IdRange filters[] = {{220, 250}, {60, 540}};
  uint64_t digest = 0xCBF29CE484222325ULL;
  auto fold = [&digest](uint64_t x) {
    digest ^= x;
    digest *= 0x100000001B3ULL;
  };
  for (const Metric metric :
       {Metric::kL2, Metric::kAngular, Metric::kInnerProduct}) {
    for (const bool ties : {false, true}) {
      const std::vector<float>& rows = ties ? tied : data.vectors;
      const std::vector<float>& qs = ties ? tied_queries : queries;
      VectorStore store(dim, metric);
      ASSERT_TRUE(
          store.AppendBatch(rows.data(), data.timestamps.data(), n).ok());
      for (const size_t exact_threshold : {n, size_t{64}}) {
        GraphBuildParams build;
        build.degree = 12;
        build.exact_threshold = exact_threshold;
        const KnnGraph graph =
            BuildKnnGraph(rows.data(), n, store.distance(), build);
        GraphSearcher searcher;
        for (const size_t max_candidates : {8, 48, 192}) {
          SearchParams p;
          p.k = 10;
          p.max_candidates = max_candidates;
          p.epsilon = 1.1f;
          p.num_entry_points = 2;
          for (const IdRange* filter :
               {static_cast<const IdRange*>(nullptr), &filters[0],
                &filters[1]}) {
            for (size_t qi = 0; qi < 8; ++qi) {
              TopKHeap heap(p.k);
              Rng rng(qi + 1);
              SearchStats stats;
              searcher.Search(store, graph,
                              IdRange{0, static_cast<VectorId>(n)},
                              qs.data() + qi * dim, p, filter, &rng, &heap,
                              &stats);
              for (const Neighbor& nb : heap.ExtractSorted()) {
                fold(static_cast<uint64_t>(nb.id));
                fold(std::bit_cast<uint32_t>(nb.distance));
              }
              fold(stats.nodes_expanded);
              fold(stats.distance_evaluations);
              fold(stats.pool_rejects);
              fold(stats.filter_hits);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(digest, 0x3d4a5a4e677d9317ULL) << std::hex << digest;
}

TEST(GraphSearcherTest, EmptyRangeIsNoop) {
  VectorStore store(4, Metric::kL2);
  KnnGraph graph(0, 4);
  GraphSearcher searcher;
  TopKHeap heap(5);
  Rng rng(1);
  float q[4] = {0, 0, 0, 0};
  SearchParams p;
  searcher.Search(store, graph, IdRange{0, 0}, q, p, nullptr, &rng, &heap);
  EXPECT_EQ(heap.size(), 0u);
}

TEST(GraphSearcherTest, SingleNodeGraph) {
  VectorStore store(2, Metric::kL2);
  float v[2] = {1, 2};
  ASSERT_TRUE(store.Append(v, 0).ok());
  KnnGraph graph(1, 4);
  GraphSearcher searcher;
  TopKHeap heap(3);
  Rng rng(1);
  float q[2] = {0, 0};
  SearchParams p;
  p.k = 3;
  searcher.Search(store, graph, IdRange{0, 1}, q, p, nullptr, &rng, &heap);
  ASSERT_EQ(heap.size(), 1u);
  EXPECT_EQ(heap.contents()[0].id, 0);
}

// Algorithm 2 reads a graph's slots at the width it stores them. A path
// over the 1-d rows 0, 1, ..., n-1 links each row to the rows beside it,
// so each end row also holds an empty slot. From any entry, a k = 1 walk
// must reach the row nearest the query, at 65,535 rows (16-bit slots) and
// at 65,536 (32-bit slots).
TEST(GraphSearcherTest, WalksPathGraphAtBothWidths) {
  for (const size_t n :
       {KnnGraph::kMaxNarrowNodes, KnnGraph::kMaxNarrowNodes + 1}) {
    std::vector<float> rows(n);
    std::vector<Timestamp> timestamps(n);
    for (size_t i = 0; i < n; ++i) {
      rows[i] = static_cast<float>(i);
      timestamps[i] = static_cast<Timestamp>(i);
    }
    VectorStore store(1, Metric::kL2);
    ASSERT_TRUE(store.AppendBatch(rows.data(), timestamps.data(), n).ok());
    KnnGraph graph(n, 2);
    for (size_t i = 0; i < n; ++i) {
      const NodeId v = static_cast<NodeId>(i);
      size_t slot = 0;
      if (i > 0) graph.SetNeighbor(v, slot++, v - 1);
      if (i + 1 < n) graph.SetNeighbor(v, slot, v + 1);
    }
    const size_t slot_bytes = n <= KnnGraph::kMaxNarrowNodes ? 2 : 4;
    EXPECT_EQ(graph.MemoryBytes(), n * 2 * slot_bytes);

    GraphSearcher searcher;
    SearchParams p;
    p.k = 1;
    for (const float q : {0.2f, 1234.4f, 40000.3f, 65534.9f, 70000.0f}) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        TopKHeap heap(1);
        Rng rng(seed);
        searcher.Search(store, graph, IdRange{0, static_cast<VectorId>(n)},
                        &q, p, nullptr, &rng, &heap);
        const SearchResult got = heap.ExtractSorted();
        const VectorId want =
            std::min(std::lround(q), static_cast<long>(n - 1));
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(got[0].id, want) << "n " << n << " q " << q;
      }
    }
  }
}

}  // namespace
}  // namespace mbi
