// Exact kNN-graph construction verified against an independent naive build.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "core/vector_store.h"
#include "graph/exact_builder.h"
#include "util/rng.h"

namespace mbi {
namespace {

std::vector<float> RandomData(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(n * dim);
  for (auto& x : data) x = rng.NextFloat();
  return data;
}

// Naive: for each node, sort all others by distance.
std::vector<std::vector<NodeId>> NaiveKnn(const std::vector<float>& data,
                                          size_t n, const DistanceFunction& d,
                                          size_t k) {
  std::vector<std::vector<NodeId>> out(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::pair<float, NodeId>> all;
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      all.push_back({d(data.data() + i * d.dim(), data.data() + j * d.dim()),
                     static_cast<NodeId>(j)});
    }
    std::sort(all.begin(), all.end());
    for (size_t s = 0; s < std::min(k, all.size()); ++s) {
      out[i].push_back(all[s].second);
    }
  }
  return out;
}

TEST(ExactBuilderTest, MatchesNaiveOnRandomData) {
  const size_t n = 50, dim = 8, k = 5;
  auto data = RandomData(n, dim, 11);
  DistanceFunction dist(Metric::kL2, dim);
  KnnGraph g = BuildExactKnnGraph(data.data(), n, dist, k);
  auto naive = NaiveKnn(data, n, dist, k);
  for (size_t v = 0; v < n; ++v) {
    auto nb = g.Neighbors(static_cast<NodeId>(v));
    ASSERT_EQ(g.NeighborCount(static_cast<NodeId>(v)), k);
    for (size_t s = 0; s < k; ++s) {
      EXPECT_EQ(nb[s], naive[v][s]) << "node " << v << " slot " << s;
    }
  }
}

// Larger than two of the builder's 256-row column tiles, read from a store
// of 256-row chunks through a slice that starts mid-chunk, so tiles and
// chunks cut the rows at different places. Every row is present three
// times, 234 ids apart, so equal distances straddle tile boundaries and the
// graph is right only if ties resolve by smaller id, as in NaiveKnn.
TEST(ExactBuilderTest, TiledStoreSliceMatchesNaiveWithTies) {
  const size_t n = 702, dim = 16, k = 10, distinct = 234, offset = 100;
  const auto base = RandomData(distinct, dim, 77);
  std::vector<float> data(n * dim);
  for (size_t i = 0; i < n; ++i) {
    std::copy_n(base.begin() + (i % distinct) * dim, dim,
                data.begin() + i * dim);
  }
  for (Metric metric :
       {Metric::kL2, Metric::kAngular, Metric::kInnerProduct}) {
    VectorStore store(dim, metric, /*chunk_capacity=*/256);
    for (size_t i = 0; i < offset; ++i) {
      ASSERT_TRUE(store.Append(base.data(), 0).ok());
    }
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(store.Append(data.data() + i * dim, 0).ok());
    }
    const DistanceFunction& dist = store.distance();
    KnnGraph g = BuildExactKnnGraph(
        VectorSlice(store, static_cast<VectorId>(offset)), n, dist, k);
    auto naive = NaiveKnn(data, n, dist, k);
    for (size_t v = 0; v < n; ++v) {
      auto nb = g.Neighbors(static_cast<NodeId>(v));
      for (size_t s = 0; s < k; ++s) {
        ASSERT_EQ(nb[s], naive[v][s])
            << MetricName(metric) << " node " << v << " slot " << s;
      }
    }
  }
}

TEST(ExactBuilderTest, AngularMetric) {
  const size_t n = 30, dim = 6, k = 4;
  auto data = RandomData(n, dim, 22);
  DistanceFunction dist(Metric::kAngular, dim);
  KnnGraph g = BuildExactKnnGraph(data.data(), n, dist, k);
  auto naive = NaiveKnn(data, n, dist, k);
  for (size_t v = 0; v < n; ++v) {
    auto nb = g.Neighbors(static_cast<NodeId>(v));
    for (size_t s = 0; s < k; ++s) EXPECT_EQ(nb[s], naive[v][s]);
  }
}

TEST(ExactBuilderTest, NeighborsSortedByDistance) {
  const size_t n = 40, dim = 4, k = 10;
  auto data = RandomData(n, dim, 33);
  DistanceFunction dist(Metric::kL2, dim);
  KnnGraph g = BuildExactKnnGraph(data.data(), n, dist, k);
  for (size_t v = 0; v < n; ++v) {
    auto nb = g.Neighbors(static_cast<NodeId>(v));
    float prev = -1;
    for (size_t s = 0; s < k; ++s) {
      ASSERT_NE(nb[s], kInvalidNode);
      float d = dist(data.data() + v * dim, data.data() + nb[s] * dim);
      EXPECT_GE(d, prev);
      prev = d;
    }
  }
}

TEST(ExactBuilderTest, NoSelfLoops) {
  const size_t n = 25, dim = 3;
  auto data = RandomData(n, dim, 44);
  DistanceFunction dist(Metric::kL2, dim);
  KnnGraph g = BuildExactKnnGraph(data.data(), n, dist, 6);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId nb : g.Neighbors(v)) {
      EXPECT_NE(nb, v);
    }
  }
}

TEST(ExactBuilderTest, DegreeLargerThanNodes) {
  const size_t n = 4, dim = 2;
  auto data = RandomData(n, dim, 55);
  DistanceFunction dist(Metric::kL2, dim);
  KnnGraph g = BuildExactKnnGraph(data.data(), n, dist, 10);
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(g.NeighborCount(v), n - 1);  // everyone else, no more
  }
}

TEST(ExactBuilderTest, SingleNode) {
  auto data = RandomData(1, 5, 66);
  DistanceFunction dist(Metric::kL2, 5);
  KnnGraph g = BuildExactKnnGraph(data.data(), 1, dist, 3);
  EXPECT_EQ(g.num_nodes(), 1u);
  EXPECT_EQ(g.NeighborCount(0), 0u);
}

TEST(ExactBuilderTest, EmptyInput) {
  DistanceFunction dist(Metric::kL2, 5);
  KnnGraph g = BuildExactKnnGraph(nullptr, 0, dist, 3);
  EXPECT_EQ(g.num_nodes(), 0u);
}

}  // namespace
}  // namespace mbi
