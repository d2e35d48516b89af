// Table 4: index sizes of MBI and SF on every dataset, as absolute bytes and
// as multiples of the input data size (the paper reports MBI at 2.15x-8.72x
// and SF at 1.21x-2.49x of the input).
//
// Following the paper's convention, an "index size" includes the vector data
// the index must keep (both MBI and SF need the raw vectors at query time)
// plus the graph structure: MBI stores one graph per block across
// O(log(n/S_L)) levels, SF a single graph. Both stores of an angular
// dataset also keep each row's squared norm, which both sizes count.

#include "bench_common.h"

int main() {
  using namespace mbi;
  using namespace mbi::bench;

  PrintHeader("Table 4: index sizes of MBI and SF");

  TablePrinter table({"dataset", "input data", "MBI", "MBI/input", "SF",
                      "SF/input", "MBI levels"});

  for (const DatasetSpec& spec : DatasetRegistry()) {
    BenchDataset ds = MakeDataset(spec);
    const size_t input =
        ds.size() * ds.dim * sizeof(float) + ds.size() * sizeof(Timestamp);

    auto mbi_index = BuildMbi(ds, ThreadPool::DefaultThreads());
    MbiStats stats = mbi_index->GetStats();
    const size_t mbi_total = stats.index_bytes + stats.store_bytes;

    auto sf = BuildSf(ds);
    const size_t sf_total = sf->IndexBytes() + sf->store().MemoryBytes();

    table.AddRow({ds.name, FormatBytes(input), FormatBytes(mbi_total),
                  FormatFloat(static_cast<double>(mbi_total) / input, 2) + "x",
                  FormatBytes(sf_total),
                  FormatFloat(static_cast<double>(sf_total) / input, 2) + "x",
                  std::to_string(stats.num_levels)});
    std::fflush(stdout);
  }
  table.Print();

  std::printf("\nMBI's ratio exceeds SF's by ~the number of levels, matching "
              "the O(n log n) vs O(n)\nanalysis of Section 4.4.1.\n");
  ExportBenchMetrics("table4_index_sizes");
  return 0;
}
