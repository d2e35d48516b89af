// Sharded search: a four-shard ShardedMbi serving a time-accumulating
// stream, demonstrating the fault-isolation toolkit end to end:
//
//   1. window pruning        — narrow windows fan out to fewer shards
//   2. hedged retries        — a straggling shard gets a backup probe and
//                              the first response wins
//   3. shed retries          — transient overload sheds are retried with
//                              backoff, honoring the retry-after hint
//   4. partial degradation   — a dead shard degrades coverage (3/4 shards
//                              answer) instead of failing the query
//   5. quarantine + recover  — the dead shard is checkpoint-revived and
//                              full coverage returns
//
// Faults are injected through the ShardFaultInjector seam. Injected delays
// and backoff are simulated, never slept, so the output is deterministic,
// and it is the same at every num_search_threads: the pool here only
// spreads the shard probes over four threads.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "shard/sharded_mbi.h"
#include "util/mutex.h"

using namespace mbi;
using namespace mbi::shard;

namespace {

// Scripted injector: per-shard fault applied to every probe until cleared.
class SlowShardInjector : public ShardFaultInjector {
 public:
  void Set(size_t shard, ShardProbeFault fault) {
    MutexLock lock(mu_);
    faults_[shard] = fault;
  }
  void Clear() {
    MutexLock lock(mu_);
    faults_.assign(faults_.size(), ShardProbeFault{});
  }
  explicit SlowShardInjector(size_t num_shards) : faults_(num_shards) {}

  ShardProbeFault OnProbe(size_t shard_index, uint32_t attempt) override {
    MutexLock lock(mu_);
    if (shard_index >= faults_.size()) return {};
    // Only the first primary probe is faulted: hedge probes
    // (attempt >= kHedgeAttemptBase) model a healthy backup replica, and
    // shed retries model the overload clearing.
    if (attempt != 0) return {};
    return faults_[shard_index];
  }

 private:
  Mutex mu_;
  std::vector<ShardProbeFault> faults_ MBI_GUARDED_BY(mu_);
};

void RunQuery(const ShardedMbi& index, const float* query,
              const TimeWindow& window, const SearchParams& search,
              const char* label) {
  QueryContext ctx;
  ShardQueryTrace trace;
  Result<SearchResult> r = index.Search(query, window, search, &ctx, &trace);
  std::printf("--- %s  (window [%lld, %lld))\n", label,
              static_cast<long long>(window.start),
              static_cast<long long>(window.end));
  if (!r.ok()) {
    std::printf("    error: %s\n", r.status().ToString().c_str());
    return;
  }
  const SearchResult& res = r.value();
  std::printf("    %s%s%s, coverage %u/%u shards, %zu neighbors",
              CompletionName(res.completion),
              res.degraded() ? "/" : "",
              res.degraded() ? DegradeReasonName(res.degrade_reason) : "",
              res.shards_ok, res.shards_total, res.size());
  if (!res.empty()) {
    std::printf(", nearest id=%lld d=%.4f",
                static_cast<long long>(res.front().id), res.front().distance);
  }
  std::printf("\n%s", trace.ToString().c_str());
}

}  // namespace

int main() {
  constexpr size_t kDim = 16;
  constexpr size_t kRows = 10000;
  constexpr int64_t kSpan = 2500;  // 4 shards

  SyntheticParams gen;
  gen.dim = kDim;
  gen.num_clusters = 12;
  SyntheticData data = GenerateSynthetic(gen, kRows);
  std::vector<float> queries = GenerateQueries(gen, 4);

  ShardedMbiParams params;
  params.shard_span = kSpan;
  params.shard.leaf_size = 256;
  params.hedge_delay_seconds = 0.005;
  params.backoff.max_retries = 2;
  params.backoff.initial_seconds = 0.001;
  params.num_search_threads = 4;
  ShardedMbi index(kDim, Metric::kL2, params);

  auto injector = std::make_shared<SlowShardInjector>(kRows / kSpan);
  index.SetFaultInjectorForTesting(injector);

  for (size_t i = 0; i < kRows; ++i) {
    MBI_CHECK_OK(index.Add(data.vector(i), data.timestamps[i]));
  }
  std::printf("ingested %zu rows into %zu shards of span %lld\n\n",
              index.size(), index.num_shards(),
              static_cast<long long>(kSpan));

  SearchParams search;
  search.k = 5;
  search.max_candidates = 64;
  const TimeWindow all{0, static_cast<Timestamp>(kRows)};
  const float* q = queries.data();

  // 1. Healthy fan-out, full window vs a window pruned to one shard.
  RunQuery(index, q, all, search, "healthy, full window");
  RunQuery(index, q, TimeWindow{0, kSpan}, search,
           "healthy, narrow window (planner prunes 3 of 4 shards)");

  // 2. Shard 2's primary replica straggles past the hedge delay: a backup
  //    probe fires and wins, so latency recovers and coverage stays 4/4.
  injector->Set(2, ShardProbeFault{Status::Ok(), /*delay_seconds=*/0.050});
  RunQuery(index, q, all, search, "shard 2 straggles -> hedge rescues it");

  // 3. Shard 2 sheds under overload with a retry-after hint: the probe
  //    backs off and retries within its budget.
  injector->Set(2, ShardProbeFault{
                       Status::ResourceExhausted("simulated overload")
                           .WithRetryAfter(0.002),
                       0.0});
  RunQuery(index, q, all, search, "shard 2 sheds -> retried with backoff");
  injector->Clear();

  // 4. Shard 1 reports data loss: it is quarantined and the query degrades
  //    to 3/4 coverage instead of failing.
  MBI_CHECK_OK(
      index.QuarantineShard(1, Status::DataLoss("simulated replica loss")));
  RunQuery(index, q, all, search, "shard 1 dead -> degraded 3/4 coverage");

  // 5. Checkpoint-revive the quarantined shard (its in-RAM state is intact)
  //    and full coverage returns. Checkpoint reuses segment files already
  //    in the directory, so start from an empty one.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "mbi_sharded_search_example")
          .string();
  std::filesystem::remove_all(dir);
  MBI_CHECK_OK(index.CheckpointShard(1, dir));
  MBI_CHECK_OK(index.RecoverShard(1, dir));
  RunQuery(index, q, all, search, "shard 1 recovered -> full coverage");

  std::filesystem::remove_all(dir);
  return 0;
}
