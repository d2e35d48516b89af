// Quickstart: build an MBI index over timestamped vectors and run TkNN
// queries with different time windows.
//
//   $ ./quickstart
//
// Walks through the full public API: MbiParams -> MbiIndex::Add ->
// MbiIndex::Search, plus index statistics and checkpoint/recover.

#include <cstdio>
#include <filesystem>
#include <string>

#include "data/synthetic.h"
#include "mbi/mbi_index.h"

int main() {
  using namespace mbi;

  // 1. Make some timestamped vectors. Timestamps here are just 0..n-1
  //    ("virtual timestamps"); any non-decreasing int64 works (unix time,
  //    release year, ...).
  constexpr size_t kN = 20000;
  constexpr size_t kDim = 32;
  SyntheticParams gen;
  gen.dim = kDim;
  gen.num_clusters = 16;
  gen.time_drift = 0.7;  // older vectors look different from newer ones
  SyntheticData data = GenerateSynthetic(gen, kN);

  // 2. Configure and build the index incrementally (Algorithm 3: each full
  //    leaf triggers bottom-up block merging).
  MbiParams params;
  params.leaf_size = 1000;  // S_L
  params.tau = 0.5;         // block-selection threshold (Lemma 4.1: <= 0.5
                            //   guarantees at most 2 blocks per query)
  params.build.degree = 24; // kNN-graph out-degree per block
  params.num_threads = 4;   // parallel bottom-up block merging

  MbiIndex index(kDim, Metric::kL2, params);
  for (size_t i = 0; i < kN; ++i) {
    Status s = index.Add(data.vector(i), data.timestamps[i]);
    if (!s.ok()) {
      std::fprintf(stderr, "insert failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  MbiStats stats = index.GetStats();
  std::printf("indexed %zu vectors into %zu blocks over %zu levels\n",
              stats.num_vectors, stats.num_blocks, stats.num_levels);
  std::printf("index structure: %.2f MiB  (raw data: %.2f MiB)\n",
              stats.index_bytes / 1048576.0, stats.store_bytes / 1048576.0);

  // 3. Query: "the 5 vectors nearest to q among those with timestamp in
  //    [2000, 4000)".
  std::vector<float> queries = GenerateQueries(gen, 1);
  const float* q = queries.data();

  SearchParams search;
  search.k = 5;
  search.max_candidates = 96;  // M_C
  search.epsilon = 1.1f;       // search-range factor
  search.num_entry_points = 4;

  QueryContext ctx;  // reusable per-thread scratch

  for (TimeWindow window : {TimeWindow{2000, 4000}, TimeWindow{0, 20000},
                            TimeWindow{19900, 20000}}) {
    MbiQueryStats qstats;
    SearchResult result = index.Search(q, window, search, &ctx, &qstats);
    std::printf("\nwindow [%ld, %ld): searched %zu block(s)\n",
                static_cast<long>(window.start), static_cast<long>(window.end),
                qstats.blocks_searched);
    for (const Neighbor& nb : result) {
      std::printf("  id=%-6ld t=%-6ld distance=%.4f\n",
                  static_cast<long>(nb.id),
                  static_cast<long>(index.store().GetTimestamp(nb.id)),
                  nb.distance);
    }
  }

  // 4. Persist and recover. Checkpoint reuses segment files already in the
  //    directory, so start from an empty one.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "mbi_quickstart").string();
  std::filesystem::remove_all(dir);
  if (Status s = index.Checkpoint(dir); !s.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n", s.ToString().c_str());
    return 1;
  }
  auto recovered = MbiIndex::Recover(dir);
  if (!recovered.ok()) {
    std::fprintf(stderr, "recover failed: %s\n",
                 recovered.status().ToString().c_str());
    return 1;
  }
  std::printf("\nrecovered index from %s: %zu vectors, %zu blocks\n",
              dir.c_str(), recovered.value()->size(),
              recovered.value()->num_blocks());
  std::filesystem::remove_all(dir);
  return 0;
}
