// Ablation: per-block index choice (kNN graph vs. flat scan).
//
// The paper notes MBI can wrap any kNN index per block (Section 4.1). This
// ablation quantifies the choice: flat blocks make MBI exact but O(m) per
// query; kNN-graph blocks (the paper) cost build time and memory but answer
// in ~O(log m + k).

#include "bench_common.h"

int main() {
  using namespace mbi;
  using namespace mbi::bench;

  PrintHeader("Ablation: graph vs. flat block indexes inside MBI");

  BenchDataset ds = MakeDataset(FindDatasetSpec("sift-sim"));
  const size_t k = 10;

  WallTimer t;
  auto graph_index = BuildMbi(ds);
  const double graph_build = t.ElapsedSeconds();

  MbiParams flat_params;
  flat_params.leaf_size = ds.leaf_size;
  flat_params.tau = ds.tau;
  flat_params.build = ds.build;
  flat_params.block_kind = BlockIndexKind::kFlat;
  t.Restart();
  auto flat_index = std::make_unique<MbiIndex>(ds.dim, ds.metric, flat_params);
  MBI_CHECK_OK(flat_index->AddBatch(ds.train.vectors.data(),
                                    ds.train.timestamps.data(), ds.size()));
  const double flat_build = t.ElapsedSeconds();

  std::printf("build time : graph %.2fs, flat %.2fs\n", graph_build,
              flat_build);
  std::printf("index bytes: graph %s, flat %s\n",
              FormatBytes(graph_index->GetStats().index_bytes).c_str(),
              FormatBytes(flat_index->GetStats().index_bytes).c_str());

  TablePrinter table({"fraction", "graph qps", "flat qps (exact)",
                      "graph/flat"});
  for (double fraction : WindowFractions()) {
    auto workload = MakeWindowWorkload(
        graph_index->store(), fraction, QueriesPerFraction(), ds.num_test,
        /*seed=*/31 + static_cast<uint64_t>(fraction * 1e4));
    auto truth = ComputeGroundTruth(graph_index->store(), ds.test.data(),
                                    workload, k);

    QpsAtRecall graph_q = MeasureMbi(*graph_index, ds, workload, truth, k);

    QueryContext ctx(11);
    SearchParams sp = ds.search;
    sp.k = k;
    WallTimer qt;
    for (const WindowQuery& wq : workload) {
      flat_index->Search(ds.test_query(wq.query_index), wq.window, sp, &ctx);
    }
    const double flat_qps = workload.size() / qt.ElapsedSeconds();

    table.AddRow({FormatFloat(fraction * 100, 0) + "%", FormatQps(graph_q),
                  FormatFloat(flat_qps, 1),
                  FormatFloat(graph_q.qps / flat_qps, 2) + "x"});
  }
  table.Print();
  ExportBenchMetrics("ablation_block_index");
  return 0;
}
