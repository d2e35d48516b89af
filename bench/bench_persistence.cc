// Persistence benchmark: incremental-vs-full checkpoint bytes and time, and
// recovery time as a function of the uncommitted tail length (tail 0 is a
// full read of the checkpoint). Emits BENCH_persistence.json (includes the
// mbi_persist_* process counters accumulated along the way).

#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_common.h"
#include "data/synthetic.h"
#include "persist/fault_injection.h"
#include "persist/file.h"
#include "util/timer.h"

namespace mbi::bench {
namespace {

namespace stdfs = std::filesystem;

struct Corpus {
  SyntheticData data;
  size_t dim;
  MbiParams params;
};

Corpus MakeCorpus(size_t n) {
  SyntheticParams gen;
  gen.dim = 64;
  gen.seed = 7;
  Corpus c;
  c.data = GenerateSynthetic(gen, n);
  c.dim = gen.dim;
  c.params.leaf_size = 1024;
  c.params.build.degree = 16;
  c.params.build.seed = 7;
  return c;
}

std::unique_ptr<MbiIndex> BuildPrefix(const Corpus& c, size_t n) {
  auto index = std::make_unique<MbiIndex>(c.dim, Metric::kL2, c.params);
  MBI_CHECK_OK(
      index->AddBatch(c.data.vectors.data(), c.data.timestamps.data(), n));
  return index;
}

void BenchIncremental(const Corpus& c, size_t n, obs::MetricRegistry& reg) {
  const std::string dir = "/tmp/mbi_bench_persist_ckpt";
  stdfs::remove_all(dir);
  persist::FaultInjectingFileSystem fs(persist::FileSystem::Posix());

  // First checkpoint at 80% of the stream, second after the remaining 20%.
  const size_t n1 = (n * 8 / 10) / 1024 * 1024;
  auto index = BuildPrefix(c, n1);
  fs.SetPlan(persist::FaultPlan{});
  WallTimer timer;
  MBI_CHECK_OK(index->Checkpoint(dir, &fs));
  const double full_secs = timer.ElapsedSeconds();
  const uint64_t full_bytes = fs.bytes_written();

  MBI_CHECK_OK(index->AddBatch(c.data.vectors.data() + n1 * c.dim,
                               c.data.timestamps.data() + n1, n - n1));
  fs.SetPlan(persist::FaultPlan{});
  timer.Restart();
  MBI_CHECK_OK(index->Checkpoint(dir, &fs));
  const double incr_secs = timer.ElapsedSeconds();
  const uint64_t incr_bytes = fs.bytes_written();

  reg.GetGauge("bench_persist_full_checkpoint_bytes", "first checkpoint")
      ->Set(static_cast<double>(full_bytes));
  reg.GetGauge("bench_persist_incr_checkpoint_bytes",
               "second checkpoint after 20% more data")
      ->Set(static_cast<double>(incr_bytes));
  std::printf(
      "checkpoint  n=%zu->%zu  full %.1f MB (%.0f ms)  incremental %.1f MB "
      "(%.0f ms)  ratio %.2fx\n",
      n1, n, full_bytes / 1e6, full_secs * 1e3, incr_bytes / 1e6,
      incr_secs * 1e3,
      full_bytes > 0 ? static_cast<double>(incr_bytes) / full_bytes : 0);
  stdfs::remove_all(dir);
}

void BenchRecoveryVsTail(const Corpus& c, size_t n, obs::MetricRegistry& reg) {
  const int64_t leaf = c.params.leaf_size;
  std::printf("recovery time vs uncommitted tail (n=%zu, leaf %lld):\n", n,
              static_cast<long long>(leaf));
  const size_t l = static_cast<size_t>(leaf);
  for (size_t tail : {size_t{0}, l / 2, l * 2, l * 8}) {
    const size_t covered = (n - tail) / leaf * leaf;
    const size_t total = covered + tail;
    auto index = BuildPrefix(c, total);
    const std::string dir = "/tmp/mbi_bench_persist_recover";
    stdfs::remove_all(dir);
    MBI_CHECK_OK(index->Checkpoint(dir));

    WallTimer timer;
    auto recovered = MbiIndex::Recover(dir);
    MBI_CHECK_OK(recovered.status());
    const double secs = timer.ElapsedSeconds();
    MBI_CHECK(recovered.value()->size() == total);

    reg.GetGauge("bench_persist_recover_ms_tail_" + std::to_string(tail),
                 "Recover wall time with this many uncommitted vectors")
        ->Set(secs * 1e3);
    std::printf("  tail %6zu vectors: recover %.1f ms\n", tail, secs * 1e3);
    stdfs::remove_all(dir);
  }
}

int Main() {
  PrintHeader("persistence: incremental checkpoints and recovery");
  const size_t n = static_cast<size_t>(
      (FullMode() ? 200000 : 20000) * BenchScaleFromEnv());
  Corpus c = MakeCorpus(n);
  auto& reg = obs::MetricRegistry::Default();

  BenchIncremental(c, n, reg);
  BenchRecoveryVsTail(c, n, reg);

  ExportBenchMetrics("persistence");
  return 0;
}

}  // namespace
}  // namespace mbi::bench

int main() { return mbi::bench::Main(); }
