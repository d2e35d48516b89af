// BlockKnnIndex interface conformance for both implementations.

#include <memory>

#include <gtest/gtest.h>

#include "baseline/bsbf.h"
#include "data/synthetic.h"
#include "eval/recall.h"
#include "index/block_index.h"
#include "index/flat_block_index.h"
#include "index/graph_block_index.h"
#include "util/io.h"

namespace mbi {
namespace {

class BlockIndexTest : public ::testing::TestWithParam<BlockIndexKind> {
 protected:
  static constexpr size_t kN = 500;
  static constexpr size_t kDim = 8;

  void SetUp() override {
    SyntheticParams gen;
    gen.dim = kDim;
    gen.seed = 15;
    data_ = GenerateSynthetic(gen, kN);
    store_ = std::make_unique<VectorStore>(kDim, Metric::kL2);
    ASSERT_TRUE(store_
                    ->AppendBatch(data_.vectors.data(),
                                  data_.timestamps.data(), kN)
                    .ok());
  }

  SyntheticData data_;
  std::unique_ptr<VectorStore> store_;
};

TEST_P(BlockIndexTest, BuildsOverSliceAndReturnsInRangeHits) {
  GraphBuildParams params;
  params.degree = 8;
  const IdRange range{100, 300};
  auto index = BuildBlockIndex(GetParam(), *store_, range, params);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->kind(), GetParam());
  EXPECT_EQ(index->range(), range);

  GraphSearcher searcher;
  Rng rng(3);
  TopKHeap heap(10);
  SearchParams sp;
  sp.k = 10;
  sp.max_candidates = 64;
  sp.num_entry_points = 4;
  index->Search(*store_, data_.vector(0), sp, nullptr, &searcher, &rng, &heap,
                nullptr);
  SearchResult got = heap.ExtractSorted();
  EXPECT_EQ(got.size(), 10u);
  for (const Neighbor& nb : got) {
    EXPECT_GE(nb.id, 100);
    EXPECT_LT(nb.id, 300);
  }
}

TEST_P(BlockIndexTest, RespectsTimeWindowFilter) {
  GraphBuildParams params;
  params.degree = 8;
  const IdRange range{0, 400};
  auto index = BuildBlockIndex(GetParam(), *store_, range, params);
  // Timestamps are 0..n-1, so the id range equals the time window.
  IdRange w{150, 250};
  GraphSearcher searcher;
  Rng rng(4);
  TopKHeap heap(5);
  SearchParams sp;
  sp.k = 5;
  sp.max_candidates = 48;
  sp.num_entry_points = 4;
  index->Search(*store_, data_.vector(7), sp, &w, &searcher, &rng, &heap,
                nullptr);
  for (const Neighbor& nb : heap.contents()) {
    EXPECT_GE(nb.id, w.begin);
    EXPECT_LT(nb.id, w.end);
  }
}

TEST_P(BlockIndexTest, SaveLoadPreservesSearchBehavior) {
  GraphBuildParams params;
  params.degree = 8;
  const IdRange range{50, 450};
  auto index = BuildBlockIndex(GetParam(), *store_, range, params);

  std::string path = ::testing::TempDir() + "/block_index_test.bin";
  {
    BinaryWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    ASSERT_TRUE(w.Write<uint32_t>(static_cast<uint32_t>(index->kind())).ok());
    ASSERT_TRUE(index->Save(&w).ok());
    ASSERT_TRUE(w.Close().ok());
  }
  std::unique_ptr<BlockKnnIndex> loaded;
  {
    BinaryReader r;
    ASSERT_TRUE(r.Open(path).ok());
    uint32_t kind;
    ASSERT_TRUE(r.Read(&kind).ok());
    loaded = MakeEmptyBlockIndex(static_cast<BlockIndexKind>(kind));
    ASSERT_TRUE(loaded->Load(&r).ok());
  }
  EXPECT_EQ(loaded->range(), range);
  EXPECT_EQ(loaded->MemoryBytes(), index->MemoryBytes());

  GraphSearcher s1, s2;
  Rng r1(9), r2(9);
  TopKHeap h1(5), h2(5);
  SearchParams sp;
  sp.k = 5;
  sp.max_candidates = 32;
  index->Search(*store_, data_.vector(3), sp, nullptr, &s1, &r1, &h1, nullptr);
  loaded->Search(*store_, data_.vector(3), sp, nullptr, &s2, &r2, &h2, nullptr);
  EXPECT_EQ(h1.ExtractSorted(), h2.ExtractSorted());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Kinds, BlockIndexTest,
                         ::testing::Values(BlockIndexKind::kGraph,
                                           BlockIndexKind::kFlat),
                         [](const auto& param_info) {
                           return BlockIndexKindName(param_info.param);
                         });

TEST(FlatBlockIndexTest, IsExactWithinSlice) {
  SyntheticParams gen;
  gen.dim = 4;
  gen.seed = 19;
  SyntheticData data = GenerateSynthetic(gen, 200);
  VectorStore store(4, Metric::kL2);
  ASSERT_TRUE(
      store.AppendBatch(data.vectors.data(), data.timestamps.data(), 200).ok());

  FlatBlockIndex index(IdRange{20, 120});
  GraphSearcher searcher;
  Rng rng(1);
  TopKHeap heap(10);
  SearchParams sp;
  sp.k = 10;
  index.Search(store, data.vector(0), sp, nullptr, &searcher, &rng, &heap,
               nullptr, nullptr);
  SearchResult got = heap.ExtractSorted();

  // Reference: BSBF over exactly the slice's time range.
  SearchResult want =
      BsbfIndex::Query(store, data.vector(0), 10, TimeWindow{20, 120});
  EXPECT_EQ(got, want);
}

TEST(FlatBlockIndexTest, MemoryIsConstant) {
  FlatBlockIndex small(IdRange{0, 10});
  FlatBlockIndex large(IdRange{0, 1000000});
  EXPECT_EQ(small.MemoryBytes(), large.MemoryBytes());
}

TEST(GraphBlockIndexTest, MemoryScalesWithSliceAndDegree) {
  SyntheticParams gen;
  gen.dim = 4;
  gen.seed = 20;
  SyntheticData data = GenerateSynthetic(gen, 300);
  VectorStore store(4, Metric::kL2);
  ASSERT_TRUE(
      store.AppendBatch(data.vectors.data(), data.timestamps.data(), 300).ok());
  GraphBuildParams params;
  params.degree = 8;
  GraphBlockIndex index(store, IdRange{0, 300}, params, nullptr);
  EXPECT_EQ(index.MemoryBytes(), 300 * 8 * sizeof(NodeId));
}

}  // namespace
}  // namespace mbi
