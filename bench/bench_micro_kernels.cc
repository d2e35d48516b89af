// Kernel microbenchmarks (google-benchmark): distance functions in pair and
// batch form, exact kNN-graph builds, top-k heap, candidate-pool insertion,
// time-range binary search, and block selection.
//
// These are the inner loops every query touches; regressions here move every
// figure.

#include <vector>

#include <benchmark/benchmark.h>

#include "core/distance.h"
#include "core/topk.h"
#include "core/vector_store.h"
#include "data/dataset.h"
#include "graph/exact_builder.h"
#include "mbi/block_tree.h"
#include "util/rng.h"

namespace {

using namespace mbi;

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.NextFloat() - 0.5f;
  return v;
}

void BM_L2Distance(benchmark::State& state) {
  const size_t dim = state.range(0);
  auto a = RandomVec(dim, 1), b = RandomVec(dim, 2);
  // mbi-lint: allow(budget-charge) — kernel microbenchmark, no budget
  for (auto _ : state) {
    benchmark::DoNotOptimize(L2SquaredDistance(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L2Distance)->Arg(32)->Arg(96)->Arg(128)->Arg(960);

void BM_AngularDistance(benchmark::State& state) {
  const size_t dim = state.range(0);
  auto a = RandomVec(dim, 3), b = RandomVec(dim, 4);
  // mbi-lint: allow(budget-charge) — kernel microbenchmark, no budget
  for (auto _ : state) {
    benchmark::DoNotOptimize(AngularDistance(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AngularDistance)->Arg(32)->Arg(100)->Arg(128)->Arg(960);

void BM_NegativeInnerProduct(benchmark::State& state) {
  const size_t dim = state.range(0);
  auto a = RandomVec(dim, 8), b = RandomVec(dim, 9);
  // mbi-lint: allow(budget-charge) — kernel microbenchmark, no budget
  for (auto _ : state) {
    benchmark::DoNotOptimize(NegativeInnerProduct(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NegativeInnerProduct)->Arg(32)->Arg(100)->Arg(128)->Arg(960);

// The batch form over 64 rows, as ExactScan calls it per sub-batch;
// items are distances, so ns per item compares with the pair cases above.
void BM_Many(benchmark::State& state, Metric metric) {
  constexpr size_t kRows = 64;
  const size_t dim = state.range(0);
  auto q = RandomVec(dim, 10), data = RandomVec(kRows * dim, 11);
  std::vector<const float*> rows(kRows);
  for (size_t r = 0; r < kRows; ++r) rows[r] = data.data() + r * dim;
  const DistanceFunction dist(metric, dim);
  std::vector<float> out(kRows);
  // mbi-lint: allow(budget-charge) — kernel microbenchmark, no budget
  for (auto _ : state) {
    dist.Many(q.data(), rows.data(), kRows, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK_CAPTURE(BM_Many, L2, Metric::kL2)
    ->Arg(32)->Arg(100)->Arg(128)->Arg(960);
BENCHMARK_CAPTURE(BM_Many, Angular, Metric::kAngular)
    ->Arg(32)->Arg(100)->Arg(128)->Arg(960);
BENCHMARK_CAPTURE(BM_Many, InnerProduct, Metric::kInnerProduct)
    ->Arg(32)->Arg(100)->Arg(128)->Arg(960);

// One exact kNN-graph build over sift-sim rows at the registry's degree:
// a 1,200-row block (sharded_fanout's root size) and a 4,000-row one.
void BM_BuildExactKnnGraph(benchmark::State& state) {
  const size_t n = state.range(0);
  const DatasetSpec spec = FindDatasetSpec("sift-sim");
  const SyntheticData data = GenerateSynthetic(spec.gen, n);
  const DistanceFunction dist(spec.metric, spec.gen.dim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildExactKnnGraph(data.vectors.data(), n, dist, spec.degree));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BuildExactKnnGraph)
    ->Arg(1200)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_TopKHeapPush(benchmark::State& state) {
  const size_t k = state.range(0);
  auto dists = RandomVec(4096, 5);
  for (auto _ : state) {
    TopKHeap heap(k);
    for (size_t i = 0; i < dists.size(); ++i) {
      heap.Push(dists[i], static_cast<VectorId>(i));
    }
    benchmark::DoNotOptimize(heap.WorstDistance());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_TopKHeapPush)->Arg(10)->Arg(100);

void BM_TimeRangeBinarySearch(benchmark::State& state) {
  const size_t n = state.range(0);
  VectorStore store(4, Metric::kL2);
  float v[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < n; ++i) {
    (void)store.Append(v, static_cast<Timestamp>(i * 3));
  }
  Rng rng(6);
  for (auto _ : state) {
    Timestamp a = static_cast<Timestamp>(rng.NextBounded(n * 3));
    benchmark::DoNotOptimize(store.FindRange({a, a + 1000}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimeRangeBinarySearch)->Arg(100000)->Arg(1000000);

void BM_BlockSelection(benchmark::State& state) {
  const int64_t n = state.range(0);
  BlockTreeShape shape(n, 1000);
  Rng rng(7);
  auto window_of = [](const IdRange& r) { return TimeWindow{r.begin, r.end}; };
  for (auto _ : state) {
    int64_t a = static_cast<int64_t>(rng.NextBounded(n - 1));
    int64_t b = a + 1 + static_cast<int64_t>(rng.NextBounded(n - a - 1) );
    benchmark::DoNotOptimize(
        SelectBlocks(shape, TimeWindow{a, b}, 0.5, window_of));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockSelection)->Arg(100000)->Arg(10000000);

}  // namespace

BENCHMARK_MAIN();
