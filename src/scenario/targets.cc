// The two scenario targets behind the driver's seam (target.h).

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "scenario/target.h"
#include "shard/sharded_mbi.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace mbi::scenario {
namespace {

// ---------------------------------------------------------------------------
// MbiIndex: one index, checkpointed into the work directory.

class MbiTarget final : public Target {
 public:
  explicit MbiTarget(RunContext* run) : run_(run), index_(NewIndex()) {}

  size_t size() const override { return index_->size(); }

  Status Add(const float* vector, Timestamp t) override {
    return index_->Add(vector, t);
  }

  Answer Search(const QueryDraw& q, const SearchParams& search,
                QueryContext* ctx) override {
    Answer a;
    MbiQueryStats qstats;
    if (run_->concurrent()) {
      Result<SearchResult> res =
          index_->SearchAdmitted(q.vector, q.window, search, ctx, &qstats);
      if (res.ok()) {
        a.result = std::move(res).value();
      } else {
        a.status = res.status();
      }
    } else {
      a.result = index_->Search(q.vector, q.window, search, ctx, &qstats);
    }
    a.rows = &index_->store();
    a.view = index_->size();
    a.meta = PackQueryMeta(a.result, q.k);
    if (a.status.ok() &&
        qstats.blocks_searched != qstats.graph_blocks + qstats.exact_blocks) {
      a.problems.push_back(Violation{InvariantId::kMetricsConsistency,
                                     "blocks_searched != graph + exact"});
    }
    return a;
  }

  void BeginPhase(const PhaseSpec&) override {}

  void Checkpoint(persist::FileSystem* fs, EventLog* log) override {
    const size_t size_at = index_->size();
    log->Append(EventKind::kCheckpointBegin, run_->phase, size_at);
    const Status st = index_->Checkpoint(run_->work_dir, fs);
    if (st.ok()) {
      // size_at is a lower bound on what the checkpoint captured (it pins
      // its own view at or after our read), so it is safe to acknowledge.
      size_t prev = last_acked_.load(std::memory_order_relaxed);
      while (prev < size_at && !last_acked_.compare_exchange_weak(
                                   prev, size_at, std::memory_order_relaxed)) {
      }
      ++run_->outcome.stats.checkpoints_committed;
      log->Append(EventKind::kCheckpointCommit, run_->phase, size_at);
    } else {
      ++run_->outcome.stats.checkpoint_faults;
      log->Append(EventKind::kCheckpointFault, run_->phase, size_at,
                  static_cast<uint64_t>(st.code()));
    }
  }

  // The "process dies": everything not in a committed checkpoint is gone.
  void Crash() override {
    acked_at_crash_ = last_acked_.load(std::memory_order_relaxed);
    high_water_peak_ =
        std::max(high_water_peak_, index_->inflight_high_water());
    run_->outcome.log.Append(EventKind::kCrash, run_->phase, index_->size(),
                             acked_at_crash_);
    ++run_->outcome.stats.crashes;
    index_.reset();
  }

  // Reboot: recover from whatever is durably on disk, through the real FS.
  void Repair() override {
    const size_t acked = acked_at_crash_;
    Result<std::unique_ptr<MbiIndex>> rec =
        MbiIndex::Recover(run_->work_dir, nullptr, &run_->spec.index);
    if (rec.ok()) {
      index_ = std::move(rec).value();
      run_->CheckRecovered(index_->store(), 0, acked);
    } else {
      if (acked > 0) {
        run_->AddViolation(InvariantId::kNoLostAckedWrites,
                           "recovery failed with " + std::to_string(acked) +
                               " acked vectors: " + rec.status().ToString());
      }
      // Nothing acked was durable; restart empty and re-ingest.
      index_ = NewIndex();
      last_acked_.store(0, std::memory_order_relaxed);
    }
    run_->outcome.log.Append(EventKind::kRecover, run_->phase, index_->size());
    ++run_->outcome.stats.recoveries;
  }

  std::vector<CounterCheck> Counters(const Tally& t) const override {
    return {
        {"mbi_queries_total", t.issued - t.shed},
        {"mbi_query_degraded_total", t.degraded},
        {"mbi_query_shed_total", t.shed},
        {"mbi_query_invalid_total", 0},
    };
  }

  size_t InflightHighWater() const override {
    return std::max(high_water_peak_, index_->inflight_high_water());
  }

  void Finish(ScenarioStats* stats) override {
    index_->FinishPendingBuilds();
    stats->final_size = index_->size();
    stats->final_blocks = index_->num_blocks();
  }

 private:
  std::unique_ptr<MbiIndex> NewIndex() const {
    return std::make_unique<MbiIndex>(run_->spec.dim, run_->spec.metric,
                                      run_->spec.index);
  }

  RunContext* const run_;
  std::unique_ptr<MbiIndex> index_;
  // Highest size a committed checkpoint captured. Written by the
  // checkpointer thread in concurrent mode, read by the driver thread at
  // crash points (after the pool joins).
  std::atomic<size_t> last_acked_{0};
  size_t acked_at_crash_ = 0;
  size_t high_water_peak_ = 0;  // across index incarnations
};

// ---------------------------------------------------------------------------
// ShardedMbi: a fleet beside an exact single-store oracle.

// The brownout fault model: while active, probes of the target shard gain
// `delay_seconds` of latency and shed with `shed_prob` (1.0 = blackout).
// Draws come from one seed-derived stream per shard (DeriveSeed(seed,
// "shard/<i>")), so each shard's fault schedule is independent of every
// other's. Thread-safe: concurrent probes serialize on mu_.
class BrownoutInjector final : public shard::ShardFaultInjector {
 public:
  BrownoutInjector(uint64_t scenario_seed, size_t target)
      : target_(target),
        rng_(DeriveSeed(scenario_seed, "shard/" + std::to_string(target))) {}

  void Set(double delay_seconds, double shed_prob, double retry_after_seconds)
      MBI_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    delay_seconds_ = delay_seconds;
    shed_prob_ = shed_prob;
    retry_after_seconds_ = retry_after_seconds;
  }

  shard::ShardProbeFault OnProbe(size_t shard_index, uint32_t) override
      MBI_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    shard::ShardProbeFault fault;
    if (shard_index != target_) return fault;
    fault.delay_seconds = delay_seconds_;
    if (shed_prob_ > 0.0 && rng_.NextDouble() < shed_prob_) {
      fault.status =
          Status::ResourceExhausted("injected shard overload (scenario)")
              .WithRetryAfter(retry_after_seconds_);
    }
    return fault;
  }

 private:
  const size_t target_;
  Mutex mu_;
  Rng rng_ MBI_GUARDED_BY(mu_);
  double delay_seconds_ MBI_GUARDED_BY(mu_) = 0.0;
  double shed_prob_ MBI_GUARDED_BY(mu_) = 0.0;
  double retry_after_seconds_ MBI_GUARDED_BY(mu_) = 0.0;
};

// kQuery payload c for a fan-out: completion | k<<8 | results<<24 |
// shards_ok<<40 | shards_selected<<48 | hedges<<56. A replay that hedges
// differently is a divergence.
uint64_t PackShardQueryMeta(const SearchResult& result, size_t k,
                            const shard::ShardQueryTrace& trace) {
  return static_cast<uint64_t>(result.completion) |
         (static_cast<uint64_t>(k & 0xFFFF) << 8) |
         (static_cast<uint64_t>(result.size() & 0xFFFF) << 24) |
         (static_cast<uint64_t>(trace.shards_ok & 0xFF) << 40) |
         (static_cast<uint64_t>(trace.shards_selected & 0xFF) << 48) |
         (static_cast<uint64_t>(trace.hedges_fired & 0xFF) << 56);
}

class ShardedTarget final : public Target {
 public:
  explicit ShardedTarget(RunContext* run)
      : run_(run),
        oracle_(run->spec.dim, run->spec.metric),
        injector_(std::make_shared<BrownoutInjector>(run->spec.seed,
                                                     run->spec.fault_shard)) {
    shard::ShardedMbiParams params = run->spec.sharded;
    params.shard = run->spec.index;
    // Every fan-out width replays bit for bit; concurrent runs race the
    // pool.
    if (run->concurrent()) {
      params.num_search_threads =
          std::max<size_t>(params.num_search_threads, 4);
    }
    fleet_ = std::make_unique<shard::ShardedMbi>(run->spec.dim,
                                                 run->spec.metric, params);
    fleet_->SetFaultInjectorForTesting(injector_);
  }

  // ShardedMbi global ids equal the oracle's row ids (shard base + local
  // id), so the oracle is both the size and the row store checks read.
  size_t size() const override { return oracle_.size(); }

  Status Add(const float* vector, Timestamp t) override {
    MBI_RETURN_IF_ERROR(fleet_->Add(vector, t));
    return oracle_.Append(vector, t);
  }

  Answer Search(const QueryDraw& q, const SearchParams& search,
                QueryContext* ctx) override {
    Answer a;
    shard::ShardQueryTrace trace;
    const uint64_t epoch = epoch_.load(std::memory_order_acquire);
    Result<SearchResult> res =
        fleet_->Search(q.vector, q.window, search, ctx, &trace);
    // The fleet held every row this query could see for its whole run.
    const bool whole =
        epoch % 2 == 0 && epoch_.load(std::memory_order_acquire) == epoch;
    a.rows = &oracle_;
    a.view = oracle_.size();
    if (!res.ok()) {
      a.status = res.status();
      return a;
    }
    a.result = std::move(res).value();
    a.meta = PackShardQueryMeta(a.result, q.k, trace);
    a.hedges = trace.hedges_fired;
    a.retries = trace.retries_total;

    // I8: retries are bounded per chain; a hedged probe runs two chains.
    const uint32_t per_chain = run_->spec.sharded.backoff.max_retries;
    for (const shard::ShardQueryTrace::Probe& p : trace.probes) {
      const uint32_t bound = per_chain * (p.hedged ? 2 : 1);
      if (p.retries > bound) {
        a.problems.push_back(Violation{
            InvariantId::kShardRetryBudget,
            "shard " + std::to_string(p.shard_index) + " consumed " +
                std::to_string(p.retries) + " retries > bound " +
                std::to_string(bound)});
      }
    }

    // I7: a full-coverage, unbudgeted merge over a whole fleet is the exact
    // oracle's top-k, bit for bit; without a brownout it must be full.
    if (!whole || q.budget_class > 0.0) return a;
    if (a.result.shards_ok < a.result.shards_total) {
      if (!brownout_) {
        a.problems.push_back(Violation{
            InvariantId::kShardOracleMatch,
            "expected full coverage, got " +
                std::to_string(a.result.shards_ok) + "/" +
                std::to_string(a.result.shards_total)});
      }
      return a;
    }
    const SearchResult exact =
        ExactOracleTopK(oracle_, a.view, q.vector, q.k, q.window);
    if (HashResult(a.result) != HashResult(exact)) {
      a.problems.push_back(Violation{
          InvariantId::kShardOracleMatch,
          "merge diverged from the exact oracle (k=" + std::to_string(q.k) +
              ", window [" + std::to_string(q.window.start) + ", " +
              std::to_string(q.window.end) + "))"});
    }
    return a;
  }

  void BeginPhase(const PhaseSpec& p) override {
    injector_->Set(p.brownout_delay_seconds, p.brownout_shed_prob,
                   run_->spec.index.shed_retry_after_seconds);
    brownout_ = p.brownout_delay_seconds > 0.0 || p.brownout_shed_prob > 0.0;
  }

  // Every shard into its own directory, one after another through `fs`: a
  // fault plan's byte trigger lands in whichever shard crosses it.
  void Checkpoint(persist::FileSystem* fs, EventLog* log) override {
    for (size_t i = 0; i < fleet_->num_shards(); ++i) {
      Result<std::shared_ptr<const MbiIndex>> pinned = fleet_->shard(i);
      const size_t size_at = pinned.ok() ? pinned.value()->size() : 0;
      log->Append(EventKind::kCheckpointBegin, run_->phase, size_at, i);
      const Status st = fleet_->CheckpointShard(i, ShardDir(i), fs);
      if (st.ok()) {
        if (i == run_->spec.fault_shard) {
          fault_shard_acked_.store(size_at, std::memory_order_relaxed);
        }
        ++run_->outcome.stats.checkpoints_committed;
        log->Append(EventKind::kCheckpointCommit, run_->phase, size_at, i);
      } else {
        ++run_->outcome.stats.checkpoint_faults;
        log->Append(EventKind::kCheckpointFault, run_->phase, size_at,
                    static_cast<uint64_t>(st.code()));
      }
    }
  }

  // The fault shard "loses its machine": out of rotation, its rows past the
  // last committed checkpoint gone with it.
  void Crash() override {
    const size_t s = run_->spec.fault_shard;
    Result<std::shared_ptr<const MbiIndex>> pinned = fleet_->shard(s);
    crash_live_ = pinned.ok() ? pinned.value()->size() : 0;
    const size_t acked = fault_shard_acked_.load(std::memory_order_relaxed);
    run_->outcome.log.Append(EventKind::kCrash, run_->phase, crash_live_,
                             acked);
    ++run_->outcome.stats.crashes;
    epoch_.fetch_add(1, std::memory_order_acq_rel);
    const Status st = fleet_->QuarantineShard(
        s, Status::Unavailable("machine lost (scenario crash)"));
    if (!st.ok()) {
      run_->AddViolation(InvariantId::kNoLostAckedWrites,
                         "cannot quarantine shard " + std::to_string(s) +
                             ": " + st.ToString());
      return;
    }
    ++run_->outcome.stats.quarantines;
    run_->outcome.log.Append(EventKind::kQuarantine, run_->phase, s,
                             static_cast<uint64_t>(StatusCode::kUnavailable));
  }

  // The replacement machine loads the last checkpoint (I1), then the lost
  // tail is backfilled row by row and the fleet is whole again.
  void Repair() override {
    const size_t s = run_->spec.fault_shard;
    const Status st = fleet_->RecoverShard(s, ShardDir(s));
    Result<std::shared_ptr<const MbiIndex>> pinned = fleet_->shard(s);
    Result<int64_t> base = fleet_->shard_base(s);
    if (!st.ok() || !pinned.ok() || !base.ok()) {
      run_->AddViolation(InvariantId::kNoLostAckedWrites,
                         "shard " + std::to_string(s) +
                             " did not recover: " + st.ToString());
      return;
    }
    const size_t recovered = pinned.value()->size();
    const auto global_base = static_cast<size_t>(base.value());
    ++run_->outcome.stats.recoveries;
    run_->outcome.log.Append(EventKind::kRecover, run_->phase, recovered);
    run_->CheckRecovered(pinned.value()->store(), global_base,
                         fault_shard_acked_.load(std::memory_order_relaxed));

    for (size_t local = recovered; local < crash_live_; ++local) {
      const size_t row = global_base + local;
      const Status add = fleet_->AppendToShard(s, run_->data.vector(row),
                                               run_->data.timestamps[row]);
      if (!add.ok()) {
        run_->AddViolation(InvariantId::kNoLostAckedWrites,
                           "backfill of row " + std::to_string(row) +
                               " failed: " + add.ToString());
        return;
      }
      ++run_->outcome.stats.add_ops;
      run_->outcome.log.Append(EventKind::kAddAck, run_->phase, row);
    }
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

  std::vector<CounterCheck> Counters(const Tally& t) const override {
    return {
        {"mbi_shard_hedges_total", t.hedges},
        {"mbi_shard_retries_total", t.retries},
        {"mbi_shard_partial_results_total", t.partial},
    };
  }

  size_t InflightHighWater() const override {
    size_t high = 0;
    for (size_t i = 0; i < fleet_->num_shards(); ++i) {
      Result<std::shared_ptr<const MbiIndex>> pinned = fleet_->shard(i);
      if (pinned.ok()) {
        high = std::max(high, pinned.value()->inflight_high_water());
      }
    }
    return high;
  }

  void Finish(ScenarioStats* stats) override {
    stats->final_size = fleet_->size();
    stats->final_blocks = 0;
    for (size_t i = 0; i < fleet_->num_shards(); ++i) {
      Result<std::shared_ptr<const MbiIndex>> pinned = fleet_->shard(i);
      if (pinned.ok()) stats->final_blocks += pinned.value()->num_blocks();
    }
  }

 private:
  std::string ShardDir(size_t i) const {
    return run_->work_dir + "/shard_" + std::to_string(i);
  }

  RunContext* const run_;
  VectorStore oracle_;
  std::shared_ptr<BrownoutInjector> injector_;
  std::unique_ptr<shard::ShardedMbi> fleet_;
  bool brownout_ = false;  // set between phases, while no reader runs
  // Even while the fleet holds every ingested row; odd from a crash until
  // its repair has backfilled the lost tail.
  std::atomic<uint64_t> epoch_{0};
  std::atomic<size_t> fault_shard_acked_{0};
  size_t crash_live_ = 0;
};

}  // namespace

std::unique_ptr<Target> MakeMbiTarget(RunContext* run) {
  return std::make_unique<MbiTarget>(run);
}

std::unique_ptr<Target> MakeShardedTarget(RunContext* run) {
  return std::make_unique<ShardedTarget>(run);
}

}  // namespace mbi::scenario
