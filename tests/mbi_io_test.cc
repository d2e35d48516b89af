// MbiIndex serialization: round-trip fidelity and corruption handling.

#include <cstdio>
#include <filesystem>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/exact_builder.h"
#include "index/graph_block_index.h"
#include "mbi/mbi_index.h"

namespace mbi {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::unique_ptr<MbiIndex> BuildSample(size_t n, Metric metric = Metric::kL2) {
  SyntheticParams gen;
  gen.dim = 8;
  gen.seed = 13;
  gen.normalize = metric == Metric::kAngular;
  SyntheticData data = GenerateSynthetic(gen, n);
  MbiParams p;
  p.leaf_size = 16;
  p.tau = 0.4;
  p.build.degree = 8;
  p.build.exact_threshold = 1 << 20;
  auto index = std::make_unique<MbiIndex>(8, metric, p);
  MBI_CHECK_OK(
      index->AddBatch(data.vectors.data(), data.timestamps.data(), n));
  return index;
}

TEST(MbiIoTest, RoundTripPreservesEverything) {
  std::unique_ptr<MbiIndex> original_ptr = BuildSample(150);
  MbiIndex& original = *original_ptr;
  std::string path = TempPath("mbi_roundtrip.idx");
  ASSERT_TRUE(original.Save(path).ok());

  auto loaded_result = MbiIndex::Load(path);
  ASSERT_TRUE(loaded_result.ok()) << loaded_result.status().ToString();
  std::unique_ptr<MbiIndex> loaded = std::move(loaded_result).value();

  EXPECT_EQ(loaded->size(), original.size());
  EXPECT_EQ(loaded->num_blocks(), original.num_blocks());
  EXPECT_EQ(loaded->params().leaf_size, original.params().leaf_size);
  EXPECT_DOUBLE_EQ(loaded->params().tau, original.params().tau);
  EXPECT_EQ(loaded->store().metric(), original.store().metric());
  EXPECT_EQ(loaded->store().dim(), original.store().dim());

  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded->store().GetTimestamp(i), original.store().GetTimestamp(i));
    for (size_t d = 0; d < 8; ++d) {
      EXPECT_FLOAT_EQ(loaded->store().GetVector(i)[d],
                      original.store().GetVector(i)[d]);
    }
  }
  for (size_t b = 0; b < original.num_blocks(); ++b) {
    const auto& ga = static_cast<const GraphBlockIndex&>(original.block(b));
    const auto& gb = static_cast<const GraphBlockIndex&>(loaded->block(b));
    EXPECT_EQ(ga.range(), gb.range());
    EXPECT_TRUE(ga.graph() == gb.graph());
  }
  std::remove(path.c_str());
}

TEST(MbiIoTest, LoadedIndexAnswersQueriesIdentically) {
  std::unique_ptr<MbiIndex> original_ptr = BuildSample(200, Metric::kAngular);
  MbiIndex& original = *original_ptr;
  std::string path = TempPath("mbi_query.idx");
  ASSERT_TRUE(original.Save(path).ok());
  auto loaded = std::move(MbiIndex::Load(path)).value();

  SyntheticParams gen;
  gen.dim = 8;
  gen.seed = 13;
  gen.normalize = true;
  auto queries = GenerateQueries(gen, 5);

  SearchParams sp;
  sp.k = 5;
  sp.max_candidates = 32;
  for (TimeWindow w : {TimeWindow{0, 200}, TimeWindow{50, 120}}) {
    for (size_t qi = 0; qi < 5; ++qi) {
      // Same seeds -> identical random entry points -> identical traversal.
      QueryContext ctx_a(42), ctx_b(42);
      SearchResult a = original.Search(queries.data() + qi * 8, w, sp, &ctx_a);
      SearchResult b = loaded->Search(queries.data() + qi * 8, w, sp, &ctx_b);
      EXPECT_EQ(a, b);
    }
  }
  std::remove(path.c_str());
}

// Load and Recover rebuild the blocks a snapshot had not yet covered with
// the GraphBuildParams stored in the file, not with today's defaults. This
// index uses exact_threshold = 1024, the default before 4,096, so its
// 2,048-row root is an NNDescent graph; the saved and checkpointed copies
// are taken while that root is still pending and must rebuild it the same.
TEST(MbiIoTest, StoredBuildParamsSurviveSaveLoadAndCheckpointRecover) {
  constexpr size_t kDim = 8, kN = 2048;
  SyntheticParams gen;
  gen.dim = kDim;
  gen.seed = 29;
  SyntheticData data = GenerateSynthetic(gen, kN);
  MbiParams p;
  p.leaf_size = 512;
  p.tau = 0.4;
  p.build.degree = 10;
  p.build.exact_threshold = 1024;
  p.build.rho = 0.5;
  p.build.delta = 0.002;
  p.build.max_iterations = 9;
  p.build.seed = 77;
  p.max_blocks_per_add = 1;  // the last Add leaves two blocks pending
  MbiIndex original(kDim, Metric::kL2, p);
  ASSERT_TRUE(
      original.AddBatch(data.vectors.data(), data.timestamps.data(), kN)
          .ok());
  ASSERT_EQ(original.pending_builds(), 2u);
  const std::string path = TempPath("mbi_params.idx");
  const std::string dir = TempPath("mbi_params_ckpt");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(original.Save(path).ok());
  ASSERT_TRUE(original.Checkpoint(dir).ok());
  original.FinishPendingBuilds();

  auto loaded_result = MbiIndex::Load(path);
  ASSERT_TRUE(loaded_result.ok()) << loaded_result.status().ToString();
  auto recovered_result = MbiIndex::Recover(dir);
  ASSERT_TRUE(recovered_result.ok()) << recovered_result.status().ToString();
  const std::unique_ptr<MbiIndex> loaded = std::move(loaded_result).value();
  const std::unique_ptr<MbiIndex> recovered =
      std::move(recovered_result).value();
  recovered->FinishPendingBuilds();

  // The root really is NNDescent's: a rebuild under the 4,096 default
  // would have given the exact graph.
  const size_t root = original.num_blocks() - 1;
  const KnnGraph& root_graph =
      static_cast<const GraphBlockIndex&>(original.block(root)).graph();
  const KnnGraph exact_root =
      BuildExactKnnGraph(VectorSlice(original.store(), 0), kN,
                         original.store().distance(), p.build.degree);
  EXPECT_FALSE(root_graph == exact_root);

  std::vector<float> queries = GenerateQueries(gen, 8);
  SearchParams sp;
  sp.k = 10;
  for (const MbiIndex* copy : {loaded.get(), recovered.get()}) {
    const GraphBuildParams& b = copy->params().build;
    EXPECT_EQ(b.degree, p.build.degree);
    EXPECT_EQ(b.exact_threshold, 1024u);
    EXPECT_EQ(b.rho, p.build.rho);
    EXPECT_EQ(b.delta, p.build.delta);
    EXPECT_EQ(b.max_iterations, p.build.max_iterations);
    EXPECT_EQ(b.seed, p.build.seed);
    ASSERT_EQ(copy->num_blocks(), original.num_blocks());
    for (size_t i = 0; i < original.num_blocks(); ++i) {
      EXPECT_TRUE(
          static_cast<const GraphBlockIndex&>(copy->block(i)).graph() ==
          static_cast<const GraphBlockIndex&>(original.block(i)).graph())
          << "block " << i;
    }
    for (TimeWindow w : {TimeWindow{0, 2048}, TimeWindow{300, 1900}}) {
      for (size_t qi = 0; qi < 8; ++qi) {
        QueryContext ctx_a(42), ctx_b(42);
        EXPECT_EQ(original.Search(queries.data() + qi * kDim, w, sp, &ctx_a),
                  copy->Search(queries.data() + qi * kDim, w, sp, &ctx_b));
      }
    }
  }
  std::remove(path.c_str());
  std::filesystem::remove_all(dir);
}

TEST(MbiIoTest, PartialLeafSurvivesRoundTrip) {
  std::unique_ptr<MbiIndex> original_ptr = BuildSample(77);  // 4 full + partial
  MbiIndex& original = *original_ptr;
  std::string path = TempPath("mbi_partial.idx");
  ASSERT_TRUE(original.Save(path).ok());
  auto loaded = std::move(MbiIndex::Load(path)).value();
  EXPECT_EQ(loaded->size(), 77u);
  EXPECT_EQ(loaded->num_blocks(), original.num_blocks());
  // A window inside the tail must be searched exactly.
  QueryContext ctx;
  SearchParams sp;
  sp.k = 3;
  MbiQueryStats stats;
  loaded->Search(loaded->store().GetVector(70), TimeWindow{70, 77}, sp, &ctx,
                 &stats);
  EXPECT_EQ(stats.exact_blocks, 1u);
}

TEST(MbiIoTest, LoadRejectsGarbage) {
  std::string path = TempPath("mbi_garbage.idx");
  FILE* f = fopen(path.c_str(), "wb");
  fputs("this is not an index", f);
  fclose(f);
  auto result = MbiIndex::Load(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(MbiIoTest, LoadRejectsMissingFile) {
  auto result = MbiIndex::Load("/nonexistent/mbi.idx");
  EXPECT_FALSE(result.ok());
}

TEST(MbiIoTest, LoadRejectsTruncatedFile) {
  std::unique_ptr<MbiIndex> original_ptr = BuildSample(100);
  MbiIndex& original = *original_ptr;
  std::string path = TempPath("mbi_trunc.idx");
  ASSERT_TRUE(original.Save(path).ok());
  // Truncate to half.
  FILE* f = fopen(path.c_str(), "rb");
  fseek(f, 0, SEEK_END);
  long size = ftell(f);
  fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  auto result = MbiIndex::Load(path);
  EXPECT_FALSE(result.ok());
  std::remove(path.c_str());
}

TEST(MbiIoTest, EmptyIndexRoundTrips) {
  MbiParams p;
  p.leaf_size = 8;
  MbiIndex original(4, Metric::kL2, p);
  std::string path = TempPath("mbi_empty.idx");
  ASSERT_TRUE(original.Save(path).ok());
  auto loaded = std::move(MbiIndex::Load(path)).value();
  EXPECT_EQ(loaded->size(), 0u);
  EXPECT_EQ(loaded->num_blocks(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mbi
