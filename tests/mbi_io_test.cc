// MbiIndex persistence through Checkpoint/Recover: round-trip fidelity of
// rows, timestamps, params and block graphs. Corruption handling lives in
// persist_test.

#include <bit>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/exact_builder.h"
#include "index/graph_block_index.h"
#include "mbi/mbi_index.h"

namespace mbi {
namespace {

// A fresh checkpoint directory: Checkpoint reuses any segment already
// there, so every test starts from an absent one.
std::string FreshDir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::unique_ptr<MbiIndex> BuildSample(size_t n) {
  SyntheticParams gen;
  gen.dim = 8;
  gen.seed = 13;
  SyntheticData data = GenerateSynthetic(gen, n);
  MbiParams p;
  p.leaf_size = 16;
  p.tau = 0.4;
  p.build.degree = 8;
  p.build.exact_threshold = 1 << 20;
  auto index = std::make_unique<MbiIndex>(8, Metric::kL2, p);
  MBI_CHECK_OK(
      index->AddBatch(data.vectors.data(), data.timestamps.data(), n));
  return index;
}

TEST(MbiIoTest, RoundTripPreservesEverything) {
  std::unique_ptr<MbiIndex> original_ptr = BuildSample(150);  // tail of 6
  MbiIndex& original = *original_ptr;
  const std::string dir = FreshDir("mbi_roundtrip");
  ASSERT_TRUE(original.Checkpoint(dir).ok());

  auto loaded_result = MbiIndex::Recover(dir);
  ASSERT_TRUE(loaded_result.ok()) << loaded_result.status().ToString();
  std::unique_ptr<MbiIndex> loaded = std::move(loaded_result).value();

  EXPECT_EQ(loaded->size(), original.size());
  EXPECT_EQ(loaded->num_blocks(), original.num_blocks());
  EXPECT_EQ(loaded->params().leaf_size, original.params().leaf_size);
  EXPECT_DOUBLE_EQ(loaded->params().tau, original.params().tau);
  EXPECT_EQ(loaded->store().metric(), original.store().metric());
  EXPECT_EQ(loaded->store().dim(), original.store().dim());
  EXPECT_EQ(loaded->params().block_kind, original.params().block_kind);
  EXPECT_EQ(loaded->params().build.degree, original.params().build.degree);
  EXPECT_EQ(loaded->params().build.exact_threshold,
            original.params().build.exact_threshold);

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
  std::filesystem::remove_all(dir);
}

// An angular store keeps each row's squared norm, and Recover refills the
// store through AppendBatch, so the norms come back with no change to the
// checkpoint format. 8,300 rows cross the store's 8,192-row chunk
// boundary; flat blocks keep the build cheap and score every row through
// the stored norms, so the recovered index must answer bit for bit alike.
TEST(MbiIoTest, RecoverRestoresStoredNormsAcrossChunks) {
  constexpr size_t kDim = 8;
  constexpr size_t kN = VectorStore::kDefaultChunkCapacity + 108;
  SyntheticParams gen;
  gen.dim = kDim;
  gen.seed = 17;
  const SyntheticData data = GenerateSynthetic(gen, kN);
  MbiParams p;
  p.leaf_size = 1024;
  p.block_kind = BlockIndexKind::kFlat;
  MbiIndex original(kDim, Metric::kAngular, p);
  ASSERT_TRUE(
      original.AddBatch(data.vectors.data(), data.timestamps.data(), kN).ok());
  const std::string dir = FreshDir("mbi_norms");
  ASSERT_TRUE(original.Checkpoint(dir).ok());
  auto recovered_result = MbiIndex::Recover(dir);
  ASSERT_TRUE(recovered_result.ok()) << recovered_result.status().ToString();
  std::unique_ptr<MbiIndex> recovered = std::move(recovered_result).value();

  const VectorStore& store = recovered->store();
  ASSERT_EQ(store.size(), kN);
  ASSERT_TRUE(store.has_norms());
  for (size_t i = 0; i < kN; ++i) {
    const VectorId id = static_cast<VectorId>(i);
    const uint32_t norm = std::bit_cast<uint32_t>(store.GetSquaredNorm(id));
    ASSERT_EQ(norm,
              std::bit_cast<uint32_t>(SquaredNorm(store.GetVector(id), kDim)))
        << "row " << i;
    ASSERT_EQ(norm, std::bit_cast<uint32_t>(
                        original.store().GetSquaredNorm(id)))
        << "row " << i;
  }

  const std::vector<float> queries = GenerateQueries(gen, 4);
  SearchParams sp;
  sp.k = 10;
  for (const TimeWindow& window :
       {TimeWindow::All(), TimeWindow{8000, 8250}}) {
    for (size_t qi = 0; qi < 4; ++qi) {
      QueryContext ctx_a(3), ctx_b(3);
      const SearchResult want =
          original.Search(queries.data() + qi * kDim, window, sp, &ctx_a);
      const SearchResult got =
          recovered->Search(queries.data() + qi * kDim, window, sp, &ctx_b);
      ASSERT_EQ(got.size(), want.size());
      for (size_t r = 0; r < got.size(); ++r) {
        EXPECT_EQ(got[r].id, want[r].id) << "query " << qi << " rank " << r;
        EXPECT_EQ(std::bit_cast<uint32_t>(got[r].distance),
                  std::bit_cast<uint32_t>(want[r].distance))
            << "query " << qi << " rank " << r;
      }
    }
  }
  std::filesystem::remove_all(dir);
}

// Recover rebuilds the blocks a checkpoint had not yet covered with the
// GraphBuildParams stored in its manifest, not with today's defaults. This
// index uses exact_threshold = 1024, the default before 4,096, so its
// 2,048-row root is an NNDescent graph; the checkpointed copy is taken while
// that root is still pending and must rebuild it the same.
TEST(MbiIoTest, StoredBuildParamsSurviveCheckpointRecover) {
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
  const std::string dir = FreshDir("mbi_params_ckpt");
  ASSERT_TRUE(original.Checkpoint(dir).ok());
  original.FinishPendingBuilds();

  auto recovered_result = MbiIndex::Recover(dir);
  ASSERT_TRUE(recovered_result.ok()) << recovered_result.status().ToString();
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
  const GraphBuildParams& b = recovered->params().build;
  EXPECT_EQ(b.degree, p.build.degree);
  EXPECT_EQ(b.exact_threshold, 1024u);
  EXPECT_EQ(b.rho, p.build.rho);
  EXPECT_EQ(b.delta, p.build.delta);
  EXPECT_EQ(b.max_iterations, p.build.max_iterations);
  EXPECT_EQ(b.seed, p.build.seed);
  ASSERT_EQ(recovered->num_blocks(), original.num_blocks());
  for (size_t i = 0; i < original.num_blocks(); ++i) {
    EXPECT_TRUE(
        static_cast<const GraphBlockIndex&>(recovered->block(i)).graph() ==
        static_cast<const GraphBlockIndex&>(original.block(i)).graph())
        << "block " << i;
  }
  for (TimeWindow w : {TimeWindow{0, 2048}, TimeWindow{300, 1900}}) {
    for (size_t qi = 0; qi < 8; ++qi) {
      QueryContext ctx_a(42), ctx_b(42);
      EXPECT_EQ(original.Search(queries.data() + qi * kDim, w, sp, &ctx_a),
                recovered->Search(queries.data() + qi * kDim, w, sp, &ctx_b));
    }
  }
  std::filesystem::remove_all(dir);
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// tests/fixtures/checkpoint_100x8_l2 was written by Checkpoint while
// KnnGraph still held every slot as a uint32: 100 rows of
// GenerateSynthetic({dim 8, seed 11}), L2, leaves of 8, graph degree 8
// and every other parameter at its default. Its 12 leaves hold 22 blocks,
// each leaf row with one empty slot, and the last 4 rows sit in the tail
// log. The digest folds the ids and distance bits that code answered for
// 8 queries over 3 windows; the recovered index must answer the same, and
// checkpointing it again must write the fixture's segments byte for byte.
TEST(MbiIoTest, RecoversCheckpointWrittenWithUint32Graphs) {
  const std::string fixture =
      std::string(MBI_FIXTURE_DIR) + "/checkpoint_100x8_l2";
  auto recovered = MbiIndex::Recover(fixture);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const MbiIndex& index = *recovered.value();
  EXPECT_EQ(index.size(), 100u);
  EXPECT_EQ(index.num_blocks(), 22u);

  SyntheticParams gen;
  gen.dim = 8;
  gen.seed = 11;
  const std::vector<float> queries = GenerateQueries(gen, 8);
  SearchParams sp;
  sp.k = 5;
  uint64_t digest = 0xCBF29CE484222325ULL;
  auto fold = [&digest](uint64_t x) {
    digest ^= x;
    digest *= 0x100000001B3ULL;
  };
  size_t answers = 0;
  for (TimeWindow w :
       {TimeWindow{0, 100}, TimeWindow{75, 100}, TimeWindow{19, 61}}) {
    for (size_t qi = 0; qi < 8; ++qi) {
      QueryContext ctx(42);
      for (const Neighbor& nb :
           index.Search(queries.data() + qi * 8, w, sp, &ctx)) {
        fold(static_cast<uint64_t>(nb.id));
        fold(std::bit_cast<uint32_t>(nb.distance));
        ++answers;
      }
    }
  }
  EXPECT_EQ(answers, 120u);
  EXPECT_EQ(digest, 0xcd8f789f0d1ed219ULL) << std::hex << digest;

  const std::string dir = FreshDir("mbi_fixture_rewrite");
  ASSERT_TRUE(index.Checkpoint(dir).ok());
  size_t segments = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(fixture + "/segments")) {
    const std::filesystem::path name = entry.path().filename();
    EXPECT_TRUE(ReadFile(entry.path()) ==
                ReadFile(std::filesystem::path(dir) / "segments" / name))
        << name;
    ++segments;
  }
  EXPECT_EQ(segments, 12u + 22u);
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir + "/segments"),
                          std::filesystem::directory_iterator()),
            static_cast<std::ptrdiff_t>(segments));
  std::filesystem::remove_all(dir);
}

// The manifest stores what defines the index; the settings of a running
// instance come from Recover's caller, or are the defaults when none are
// given. This index checkpoints with two cascade builds pending under its
// ingest cap of one, so the tail replay must build every block whatever
// cap the recovered instance runs with.
TEST(MbiIoTest, RecoverTakesRunningSettingsFromTheCaller) {
  constexpr size_t kDim = 8, kN = 192;
  SyntheticParams gen;
  gen.dim = kDim;
  gen.seed = 31;
  SyntheticData data = GenerateSynthetic(gen, kN);
  MbiParams p;
  p.leaf_size = 16;
  p.build.degree = 8;
  p.adaptive_block_search = true;
  p.max_inflight_queries = 3;
  p.shed_retry_after_seconds = 0.5;
  p.max_blocks_per_add = 1;
  p.num_threads = 2;
  MbiIndex original(kDim, Metric::kL2, p);
  ASSERT_TRUE(
      original.AddBatch(data.vectors.data(), data.timestamps.data(), kN)
          .ok());
  ASSERT_EQ(original.pending_builds(), 2u);
  const std::string dir = FreshDir("mbi_running_settings");
  ASSERT_TRUE(original.Checkpoint(dir).ok());
  original.FinishPendingBuilds();

  const MbiParams defaults;
  auto plain = MbiIndex::Recover(dir);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  const MbiParams& d = plain.value()->params();
  EXPECT_EQ(d.adaptive_block_search, defaults.adaptive_block_search);
  EXPECT_EQ(d.max_inflight_queries, defaults.max_inflight_queries);
  EXPECT_EQ(d.shed_retry_after_seconds, defaults.shed_retry_after_seconds);
  EXPECT_EQ(d.max_blocks_per_add, defaults.max_blocks_per_add);
  EXPECT_EQ(d.num_threads, defaults.num_threads);
  EXPECT_EQ(plain.value()->pending_builds(), 0u);
  EXPECT_EQ(plain.value()->num_blocks(), original.num_blocks());

  // The caller's stored fields are ignored: the manifest's leaf size wins.
  MbiParams running = p;
  running.leaf_size = 64;
  auto kept = MbiIndex::Recover(dir, nullptr, &running);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  const MbiParams& r = kept.value()->params();
  EXPECT_EQ(r.leaf_size, p.leaf_size);
  EXPECT_EQ(r.adaptive_block_search, p.adaptive_block_search);
  EXPECT_EQ(r.max_inflight_queries, p.max_inflight_queries);
  EXPECT_EQ(r.shed_retry_after_seconds, p.shed_retry_after_seconds);
  EXPECT_EQ(r.max_blocks_per_add, p.max_blocks_per_add);
  EXPECT_EQ(r.num_threads, p.num_threads);
  EXPECT_EQ(kept.value()->pending_builds(), 0u);
  EXPECT_EQ(kept.value()->num_blocks(), original.num_blocks());

  // Invalid running settings are refused like invalid constructor params.
  running.num_threads = 0;
  EXPECT_EQ(MbiIndex::Recover(dir, nullptr, &running).status().code(),
            StatusCode::kInvalidArgument);
  std::filesystem::remove_all(dir);
}

TEST(MbiIoTest, RecoverRejectsMissingDirectory) {
  auto result = MbiIndex::Recover("/nonexistent/mbi_ckpt");
  EXPECT_FALSE(result.ok());
}

TEST(MbiIoTest, EmptyIndexRoundTrips) {
  MbiParams p;
  p.leaf_size = 8;
  MbiIndex original(4, Metric::kL2, p);
  const std::string dir = FreshDir("mbi_empty");
  ASSERT_TRUE(original.Checkpoint(dir).ok());
  auto loaded = MbiIndex::Recover(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->size(), 0u);
  EXPECT_EQ(loaded.value()->num_blocks(), 0u);
  EXPECT_EQ(loaded.value()->params().leaf_size, 8);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mbi
