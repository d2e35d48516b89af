#include "scenario/driver.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <utility>

#include "eval/recall.h"
#include "obs/metrics.h"
#include "persist/crc32c.h"
#include "persist/fault_injection.h"
#include "scenario/target.h"
#include "util/budget.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mbi::scenario {

uint64_t HashResult(const SearchResult& result) {
  uint32_t crc = 0;
  for (const Neighbor& nb : result) {
    unsigned char buf[12];
    std::memcpy(buf, &nb.id, 8);
    std::memcpy(buf + 8, &nb.distance, 4);
    crc = persist::Crc32cExtend(crc, buf, sizeof(buf));
  }
  return (static_cast<uint64_t>(result.size()) << 32) | crc;
}

uint64_t PackQueryMeta(const SearchResult& result, size_t k) {
  return static_cast<uint64_t>(result.completion) |
         (static_cast<uint64_t>(k) << 8) |
         (static_cast<uint64_t>(result.size()) << 24);
}

void Tally::MergeFrom(const Tally& other) {
  issued += other.issued;
  shed += other.shed;
  degraded += other.degraded;
  complete += other.complete;
  hedges += other.hedges;
  retries += other.retries;
  partial += other.partial;
  recall.MergeFrom(other.recall);
  overshoot.MergeFrom(other.overshoot);
}

void RunContext::AddViolation(InvariantId id, std::string detail) {
  outcome.violations.push_back(Violation{id, std::move(detail)});
  outcome.log.Append(EventKind::kInvariant, phase, static_cast<uint64_t>(id),
                     0);
}

void RunContext::PassInvariant(InvariantId id) {
  outcome.log.Append(EventKind::kInvariant, phase, static_cast<uint64_t>(id),
                     1);
}

void RunContext::CheckRecovered(const VectorStore& store, size_t base,
                                size_t acked) {
  const size_t recovered = store.size();
  bool lost = recovered < acked;
  if (lost) {
    AddViolation(InvariantId::kNoLostAckedWrites,
                 "recovered " + std::to_string(recovered) + " < acked " +
                     std::to_string(acked));
  }
  for (size_t i = 0; i < recovered; ++i) {
    const auto id = static_cast<VectorId>(i);
    if (store.GetTimestamp(id) != data.timestamps[base + i] ||
        std::memcmp(store.GetVector(id), data.vector(base + i),
                    spec.dim * sizeof(float)) != 0) {
      AddViolation(InvariantId::kNoLostAckedWrites,
                   "recovered row " + std::to_string(base + i) +
                       " differs from the ingested one");
      lost = true;
      break;
    }
  }
  if (!lost) PassInvariant(InvariantId::kNoLostAckedWrites);
}

namespace {

namespace stdfs = std::filesystem;

// Query vectors shared by every phase; individual queries draw an index into
// this pool, so replay cost stays independent of query volume.
constexpr size_t kQueryPoolSize = 64;

// Virtual nanoseconds the deterministic driver advances per operation. Any
// fixed schedule works — it only has to be the same on every replay.
constexpr int64_t kVirtualNanosPerAdd = 1000;
constexpr int64_t kVirtualNanosPerQuery = 200;

// A broken invariant repeats on every query; a reader keeps the first few.
constexpr size_t kMaxReaderViolations = 8;

// Deterministic analog of a d-second deadline: a work cap assuming ~1M
// distance evaluations per second (see QueryMix::budget_classes).
uint64_t WorkCapForBudgetClass(double d) {
  const long long cap = std::llround(d * 1e6);
  return static_cast<uint64_t>(std::max(16LL, cap));
}

// Where a phase's scheduled checkpoints and crash land, as target sizes.
struct PhasePlan {
  std::vector<size_t> ckpt_at;  // evenly spaced in the phase
  size_t crash_at = 0;          // 0 = no crash
};

class Driver {
 public:
  Driver(const ScenarioSpec& spec, const RunOptions& opts)
      : run_(spec, opts),
        query_rng_(DeriveSeed(spec.seed, SeedStream::kQueryPick)),
        sched_rng_(DeriveSeed(spec.seed, SeedStream::kSchedule)),
        faultgen_(MakeFaultParams(spec.seed)),
        faultfs_(persist::FileSystem::Posix()) {}

  Result<ScenarioOutcome> Run();

 private:
  static persist::FaultScheduleParams MakeFaultParams(uint64_t seed) {
    persist::FaultScheduleParams p;
    p.seed = DeriveSeed(seed, SeedStream::kFaults);
    // Crash plans zombify the file system mid-checkpoint; the driver models
    // crashes explicitly (PhaseSpec::crash_and_recover), so checkpoint-fault
    // schedules stick to fail-and-continue faults.
    p.allow_crash = false;
    return p;
  }

  const ScenarioSpec& spec() const { return run_.spec; }

  Status Setup();
  void Teardown();

  PhasePlan PlanPhase(const PhaseSpec& p);
  void RunPhases();
  void RunPhaseDeterministic(uint32_t pi, const PhaseSpec& p);
  void RunPhaseConcurrent(uint32_t pi, const PhaseSpec& p);
  void RunQueryOnlyConcurrent(uint32_t pi, const PhaseSpec& p);

  Status DoAdd();
  void DoCheckpoint(bool inject, EventLog* log);

  // Draws one query's parameters from `rng`; returns false when the target
  // is still empty (nothing to ask).
  bool DrawQuery(const PhaseSpec& p, size_t committed, Rng* rng,
                 QueryDraw* out);
  // Tallies one answer into `t` and checks it: I4, the target's own
  // per-query invariants, and I2 sampling when `ordinal` is due.
  void Grade(const PhaseSpec& p, const QueryDraw& q, const Answer& a,
             uint64_t ordinal, Tally* t, std::vector<Violation>* found);
  void DeterministicQuery(uint32_t pi, const PhaseSpec& p);
  // Issues queries until `stop`, or `quota` of them when non-zero.
  void ReaderLoop(const PhaseSpec& p, uint64_t thread_seed, size_t quota,
                  const std::atomic<bool>* stop, std::atomic<size_t>* done,
                  Tally* agg);
  void OverloadBurst(uint32_t pi, const PhaseSpec& p);
  void MergeReaders(std::vector<Tally>* aggs);

  void CheckEndOfRun(const std::vector<uint64_t>& counter_base);

  RunContext run_;
  std::unique_ptr<Target> target_;
  std::vector<float> query_pool_;

  Rng query_rng_;
  Rng sched_rng_;
  persist::FaultScheduleGenerator faultgen_;
  persist::FaultInjectingFileSystem faultfs_;
  bool own_work_dir_ = false;

  VirtualClock vclock_;

  // Driver-side tallies (deterministic mode and post-join merges only).
  Tally tally_;
  uint64_t query_ordinal_ = 0;
};

Status Driver::Setup() {
  if (run_.opts.work_dir.empty()) {
    const std::string leaf = "mbi_scenario_" + spec().name + "_" +
                             std::to_string(spec().seed) + "_" +
                             std::to_string(static_cast<long>(::getpid()));
    std::error_code ec;
    const stdfs::path dir = stdfs::temp_directory_path(ec) / leaf;
    if (ec) return Status::IoError("no temp directory: " + ec.message());
    stdfs::remove_all(dir, ec);
    run_.work_dir = dir.string();
    own_work_dir_ = true;
  } else {
    run_.work_dir = run_.opts.work_dir;
  }
  std::error_code ec;
  stdfs::create_directories(run_.work_dir, ec);
  if (ec) {
    return Status::IoError("cannot create " + run_.work_dir + ": " +
                           ec.message());
  }

  SyntheticParams gen;
  gen.dim = spec().dim;
  gen.seed = DeriveSeed(spec().seed, SeedStream::kData);
  run_.data = GenerateSynthetic(gen, spec().TotalAdds());
  query_pool_ = GenerateQueries(gen, kQueryPoolSize);

  target_ = spec().is_sharded() ? MakeShardedTarget(&run_)
                                : MakeMbiTarget(&run_);
  return Status::Ok();
}

void Driver::Teardown() {
  if (own_work_dir_ && !run_.work_dir.empty()) {
    std::error_code ec;
    stdfs::remove_all(run_.work_dir, ec);  // best-effort cleanup
  }
}

Status Driver::DoAdd() {
  const size_t row = target_->size();
  MBI_RETURN_IF_ERROR(
      target_->Add(run_.data.vector(row), run_.data.timestamps[row]));
  ++run_.outcome.stats.add_ops;
  return Status::Ok();
}

void Driver::DoCheckpoint(bool inject, EventLog* log) {
  persist::FileSystem* fs = nullptr;
  if (inject) {
    faultfs_.SetPlan(faultgen_.Next());
    fs = &faultfs_;
  }
  target_->Checkpoint(fs, log);
  if (inject) faultfs_.SetPlan(persist::FaultPlan{});
}

bool Driver::DrawQuery(const PhaseSpec& p, size_t committed, Rng* rng,
                       QueryDraw* out) {
  if (committed == 0) return false;
  out->vector = query_pool_.data() +
                rng->NextBounded(kQueryPoolSize) * spec().dim;
  const double frac =
      p.mix.window_fractions[rng->NextBounded(p.mix.window_fractions.size())];
  out->k = p.mix.ks[rng->NextBounded(p.mix.ks.size())];
  out->budget_class =
      p.mix.budget_classes[rng->NextBounded(p.mix.budget_classes.size())];
  out->ctx_seed = rng->Next();

  // Synthetic timestamps are 0..n-1, so the committed time range is exactly
  // [0, committed); place a frac-length window uniformly inside it.
  const auto span = static_cast<Timestamp>(committed);
  const Timestamp len = std::max<Timestamp>(
      1, static_cast<Timestamp>(std::llround(frac * static_cast<double>(span))));
  const Timestamp start = static_cast<Timestamp>(
      rng->NextBounded(static_cast<uint64_t>(span - len + 1)));
  out->window = TimeWindow{start, start + len};
  return true;
}

void Driver::Grade(const PhaseSpec& p, const QueryDraw& q, const Answer& a,
                   uint64_t ordinal, Tally* t, std::vector<Violation>* found) {
  const std::string where =
      "phase " + p.name + " query " + std::to_string(ordinal) + ": ";
  if (!a.status.ok()) {
    if (a.status.code() == StatusCode::kResourceExhausted) {
      ++t->shed;
    } else {
      found->push_back(Violation{InvariantId::kResultValidity,
                                 where + "failed instead of degrading: " +
                                     a.status.ToString()});
    }
    return;
  }
  if (a.result.degraded()) {
    ++t->degraded;
  } else {
    ++t->complete;
  }
  t->hedges += a.hedges;
  t->retries += a.retries;
  if (a.result.shards_ok < a.result.shards_total) ++t->partial;

  // I4: every result, complete or degraded, must be internally valid.
  const std::string bad = CheckResultValidity(*a.rows, a.view, q.window,
                                              q.vector, q.k, a.result);
  if (!bad.empty()) {
    found->push_back(Violation{InvariantId::kResultValidity, where + bad});
  }
  for (const Violation& v : a.problems) {
    found->push_back(Violation{v.id, where + v.detail});
  }

  // I2 sampling: every Nth unbounded query is graded against the oracle.
  // Windows end at or before the rows committed when the query was drawn,
  // so rows landing meanwhile cannot change the exact answer.
  const size_t every = spec().bounds.oracle_sample_every;
  if (q.budget_class <= 0.0 && every != 0 && ordinal % every == 0) {
    const SearchResult exact =
        ExactOracleTopK(*a.rows, a.view, q.vector, q.k, q.window);
    t->recall.Add(RecallAtK(a.result, exact, q.k));
  }
}

void Driver::DeterministicQuery(uint32_t pi, const PhaseSpec& p) {
  QueryDraw q;
  if (!DrawQuery(p, target_->size(), &query_rng_, &q)) return;

  SearchParams sp;
  sp.k = q.k;
  QueryBudget budget;
  if (q.budget_class > 0.0) {
    // Budgets become work caps, the deterministic analog of deadlines — plus
    // a seed-derived slice of already-expired virtual-clock deadlines, so
    // the deadline-degradation path runs under replay too.
    if (query_rng_.NextDouble() < 0.05) {
      budget.deadline = Deadline::After(0.0);
    } else {
      budget.max_distance_evals = WorkCapForBudgetClass(q.budget_class);
    }
    sp.budget = &budget;
  }

  QueryContext ctx(q.ctx_seed);
  const Answer a = target_->Search(q, sp, &ctx);
  ++tally_.issued;
  std::vector<Violation> found;
  Grade(p, q, a, query_ordinal_ + 1, &tally_, &found);
  for (Violation& v : found) run_.AddViolation(v.id, std::move(v.detail));
  if (a.status.ok()) {
    run_.outcome.log.Append(EventKind::kQuery, pi, query_ordinal_,
                            HashResult(a.result), a.meta);
    if (a.hedges > 0) {
      run_.outcome.log.Append(EventKind::kHedge, pi, query_ordinal_,
                              a.hedges);
    }
  }
  ++query_ordinal_;
  vclock_.AdvanceNanos(kVirtualNanosPerQuery);
}

PhasePlan Driver::PlanPhase(const PhaseSpec& p) {
  const size_t start_size = target_->size();
  const size_t end_size = start_size + p.adds;
  PhasePlan plan;
  for (size_t j = 1; j <= p.checkpoints; ++j) {
    size_t off = p.adds * j / (p.checkpoints + 1);
    plan.ckpt_at.push_back(start_size + std::max<size_t>(1, off));
  }
  // Crash strictly after the first scheduled checkpoint so there is
  // something durable to recover.
  if (p.crash_and_recover && p.adds > 0) {
    size_t lo = plan.ckpt_at.empty() ? start_size + 1
                                     : plan.ckpt_at.front() + 1;
    lo = std::min(lo, end_size);  // a checkpoint can land on the last add
    plan.crash_at = lo + sched_rng_.NextBounded(end_size - lo + 1);
  }
  return plan;
}

void Driver::RunPhaseDeterministic(uint32_t pi, const PhaseSpec& p) {
  if (p.adds == 0) {
    for (size_t j = 0; j < p.checkpoints; ++j) {
      DoCheckpoint(p.inject_checkpoint_faults, &run_.outcome.log);
    }
    if (p.crash_and_recover) target_->Crash();
    for (size_t i = 0; i < p.epilogue_queries; ++i) DeterministicQuery(pi, p);
    if (p.crash_and_recover) target_->Repair();
    return;
  }
  const size_t end_size = target_->size() + p.adds;
  const PhasePlan plan = PlanPhase(p);
  size_t next_ckpt = 0;
  bool crashed = false;
  double credit = 0.0;
  while (target_->size() < end_size) {
    Status st = DoAdd();
    if (!st.ok()) {
      run_.AddViolation(InvariantId::kNoLostAckedWrites,
                        "Add failed mid-phase: " + st.ToString());
      return;
    }
    const size_t row = target_->size() - 1;
    run_.outcome.log.Append(EventKind::kAddAck, pi, row);
    vclock_.AdvanceNanos(kVirtualNanosPerAdd);

    // Fire each threshold once, on first crossing; a crash may drop the size
    // back below an already-fired threshold, which must not re-fire it.
    while (next_ckpt < plan.ckpt_at.size() &&
           target_->size() >= plan.ckpt_at[next_ckpt]) {
      DoCheckpoint(p.inject_checkpoint_faults, &run_.outcome.log);
      ++next_ckpt;
    }
    if (!crashed && plan.crash_at != 0 && target_->size() >= plan.crash_at) {
      crashed = true;
      target_->Crash();
      target_->Repair();
      credit = 0.0;
      continue;  // size may have regressed; re-check the loop condition
    }

    credit += p.queries_per_add;
    while (credit >= 1.0) {
      credit -= 1.0;
      DeterministicQuery(pi, p);
    }
  }
}

void Driver::ReaderLoop(const PhaseSpec& p, uint64_t thread_seed,
                        size_t quota, const std::atomic<bool>* stop,
                        std::atomic<size_t>* done, Tally* agg) {
  Rng rng(thread_seed);
  QueryContext ctx(rng.Next());
  uint64_t ordinal = 0;
  while (!stop->load(std::memory_order_acquire) &&
         (quota == 0 || ordinal < quota)) {
    QueryDraw q;
    if (!DrawQuery(p, target_->size(), &rng, &q)) {
      if (quota != 0) break;  // a query-only phase: no rows will arrive
      std::this_thread::yield();
      continue;
    }
    SearchParams sp;
    sp.k = q.k;
    QueryBudget budget;
    if (q.budget_class > 0.0) {
      budget = QueryBudget::WithDeadline(q.budget_class);
      sp.budget = &budget;
    }
    WallTimer timer;
    ++agg->issued;
    const Answer a = target_->Search(q, sp, &ctx);
    const double elapsed = timer.ElapsedSeconds();
    ++ordinal;
    done->fetch_add(1, std::memory_order_relaxed);
    if (a.status.ok() && q.budget_class > 0.0) {
      agg->overshoot.Add(elapsed / q.budget_class);
    }
    std::vector<Violation> found;
    Grade(p, q, a, ordinal, agg, &found);
    for (Violation& v : found) {
      if (agg->violations.size() < kMaxReaderViolations) {
        agg->violations.push_back(std::move(v));
      }
    }
  }
  if (quota > ordinal) done->fetch_add(quota - ordinal);
}

void Driver::OverloadBurst(uint32_t pi, const PhaseSpec& p) {
  const size_t limit = spec().index.max_inflight_queries;
  const size_t burst_threads = static_cast<size_t>(
      std::ceil(p.overload_factor * static_cast<double>(limit)));
  if (burst_threads == 0 || target_->size() == 0) return;
  constexpr size_t kQueriesPerBurstThread = 50;

  std::atomic<size_t> issued{0};
  std::atomic<size_t> shed{0};
  std::atomic<size_t> degraded{0};
  ThreadPool burst(burst_threads);
  for (size_t t = 0; t < burst_threads; ++t) {
    const uint64_t seed =
        DeriveSeed(spec().seed, SeedStream::kThreads, 7919 + t);
    burst.Submit([this, &p, &issued, &shed, &degraded, seed] {
      Rng rng(seed);
      QueryContext ctx(rng.Next());
      for (size_t i = 0; i < kQueriesPerBurstThread; ++i) {
        QueryDraw q;
        if (!DrawQuery(p, target_->size(), &rng, &q)) break;
        SearchParams sp;
        sp.k = q.k;
        // Burst queries carry a deadline so the injected distance delay
        // applies, holding them in flight long enough to collide.
        QueryBudget budget = QueryBudget::WithDeadline(
            q.budget_class > 0.0 ? q.budget_class : 0.05);
        sp.budget = &budget;
        issued.fetch_add(1, std::memory_order_relaxed);
        const Answer a = target_->Search(q, sp, &ctx);
        if (!a.status.ok()) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else if (a.result.degraded()) {
          degraded.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  burst.Wait();
  tally_.issued += issued.load();
  tally_.shed += shed.load();
  tally_.degraded += degraded.load();
  tally_.complete += issued.load() - shed.load() - degraded.load();
  ++run_.outcome.stats.overload_bursts;
  run_.outcome.log.Append(EventKind::kOverloadBurst, pi, issued.load(),
                          shed.load());
}

void Driver::MergeReaders(std::vector<Tally>* aggs) {
  for (Tally& a : *aggs) {
    tally_.MergeFrom(a);
    for (Violation& v : a.violations) {
      run_.outcome.violations.push_back(std::move(v));
    }
  }
}

void Driver::RunPhaseConcurrent(uint32_t pi, const PhaseSpec& p) {
  if (p.adds == 0) {
    RunQueryOnlyConcurrent(pi, p);
    return;
  }
  const size_t end_size = target_->size() + p.adds;
  const PhasePlan plan = PlanPhase(p);
  const size_t burst_at =
      p.overload_factor > 0.0 ? target_->size() + p.adds / 2 : 0;

  size_t next_ckpt = 0;
  bool crashed = false;
  bool burst_done = false;
  bool aborted = false;

  // The phase runs as one or two segments (split at the crash point). Each
  // segment spins up readers + a checkpointer, the driver thread writes, and
  // everything joins at the segment boundary — so the crash destroys the
  // index only once no other thread can touch it.
  while (target_->size() < end_size && !aborted) {
    const size_t segment_end = (!crashed && plan.crash_at != 0)
                                   ? std::min(end_size, plan.crash_at)
                                   : end_size;
    std::atomic<bool> stop{false};
    std::atomic<size_t> done{0};
    std::vector<Tally> aggs(p.query_threads);
    EventLog ckpt_log;

    ThreadPool pool(p.query_threads + 1);
    for (size_t t = 0; t < p.query_threads; ++t) {
      const uint64_t seed =
          DeriveSeed(spec().seed, SeedStream::kThreads, pi * 101 + t);
      Tally* agg = &aggs[t];
      pool.Submit([this, &p, seed, &stop, &done, agg] {
        ReaderLoop(p, seed, /*quota=*/0, &stop, &done, agg);
      });
    }
    // Checkpointer: fires each scheduled checkpoint once its size threshold
    // is reached. Owns next_ckpt and ckpt_log for the segment; the driver
    // thread touches them only after Wait().
    pool.Submit([this, &p, &stop, &plan, &next_ckpt, &ckpt_log] {
      while (!stop.load(std::memory_order_acquire)) {
        if (next_ckpt < plan.ckpt_at.size() &&
            target_->size() >= plan.ckpt_at[next_ckpt]) {
          DoCheckpoint(p.inject_checkpoint_faults, &ckpt_log);
          ++next_ckpt;
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });

    while (target_->size() < segment_end) {
      Status st = DoAdd();
      if (!st.ok()) {
        run_.AddViolation(InvariantId::kNoLostAckedWrites,
                          "Add failed mid-phase: " + st.ToString());
        aborted = true;
        break;
      }
      if (!burst_done && burst_at != 0 && target_->size() >= burst_at) {
        burst_done = true;
        OverloadBurst(pi, p);
      }
    }
    stop.store(true, std::memory_order_release);
    pool.Wait();
    // A fast writer can finish the segment before the checkpointer wakes;
    // take what was due now, so a crash always finds it.
    while (next_ckpt < plan.ckpt_at.size() &&
           target_->size() >= plan.ckpt_at[next_ckpt]) {
      DoCheckpoint(p.inject_checkpoint_faults, &ckpt_log);
      ++next_ckpt;
    }

    MergeReaders(&aggs);
    for (const Event& e : ckpt_log.events()) run_.outcome.log.Append(e);

    if (!aborted && !crashed && plan.crash_at != 0 &&
        target_->size() >= plan.crash_at) {
      crashed = true;
      target_->Crash();
      target_->Repair();
    }
  }
}

// A query-only phase: each reader issues epilogue_queries queries while the
// driver thread changes the target underneath them — checkpoints and the
// crash once a quarter of the phase's queries are done, the repair at half.
void Driver::RunQueryOnlyConcurrent(uint32_t pi, const PhaseSpec& p) {
  std::atomic<bool> stop{false};
  std::atomic<size_t> done{0};
  std::vector<Tally> aggs(p.query_threads);
  const size_t total = p.query_threads * p.epilogue_queries;
  const auto wait_for = [&done](size_t n) {
    while (done.load(std::memory_order_relaxed) < n) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };
  {
    ThreadPool pool(std::max<size_t>(1, p.query_threads));
    for (size_t t = 0; t < p.query_threads; ++t) {
      const uint64_t seed =
          DeriveSeed(spec().seed, SeedStream::kThreads, pi * 101 + t);
      Tally* agg = &aggs[t];
      pool.Submit([this, &p, seed, &stop, &done, agg] {
        ReaderLoop(p, seed, p.epilogue_queries, &stop, &done, agg);
      });
    }
    wait_for(total / 4);
    for (size_t j = 0; j < p.checkpoints; ++j) {
      DoCheckpoint(p.inject_checkpoint_faults, &run_.outcome.log);
    }
    if (p.crash_and_recover) {
      target_->Crash();
      wait_for(total / 2);
      target_->Repair();
    }
    pool.Wait();
  }
  MergeReaders(&aggs);
}

void Driver::RunPhases() {
  for (uint32_t pi = 0; pi < spec().phases.size(); ++pi) {
    const PhaseSpec& p = spec().phases[pi];
    run_.phase = pi;
    run_.outcome.log.Append(EventKind::kPhaseStart, pi);
    target_->BeginPhase(p);
    if (run_.concurrent()) {
      RunPhaseConcurrent(pi, p);
    } else {
      RunPhaseDeterministic(pi, p);
    }
    run_.outcome.log.Append(EventKind::kPhaseEnd, pi);
  }
}

void Driver::CheckEndOfRun(const std::vector<uint64_t>& counter_base) {
  ScenarioStats& stats = run_.outcome.stats;
  const bool concurrent = run_.concurrent();

  // I2: recall floor over the sampled unbounded queries.
  stats.recall_mean = tally_.recall.Mean();
  stats.recall_samples = tally_.recall.count();
  if (tally_.recall.count() > 0) {
    if (tally_.recall.Mean() < spec().bounds.recall_floor) {
      run_.AddViolation(
          InvariantId::kRecallFloor,
          "mean recall " + std::to_string(tally_.recall.Mean()) + " < " +
              std::to_string(spec().bounds.recall_floor) + " over " +
              std::to_string(tally_.recall.count()) + " samples");
    } else {
      run_.PassInvariant(InvariantId::kRecallFloor);
    }
  }

  // I3: p99 deadline overshoot — only meaningful when an injected delay
  // makes per-unit work dominate scheduler noise.
  stats.p99_overshoot = tally_.overshoot.Quantile(0.99);
  stats.overshoot_samples = tally_.overshoot.count();
  constexpr size_t kMinOvershootSamples = 20;
  if (concurrent && run_.opts.injected_distance_delay_nanos > 0 &&
      tally_.overshoot.count() >= kMinOvershootSamples) {
    if (stats.p99_overshoot > spec().bounds.p99_overshoot_factor) {
      run_.AddViolation(
          InvariantId::kDeadlineOvershoot,
          "p99 overshoot " + std::to_string(stats.p99_overshoot) + " > " +
              std::to_string(spec().bounds.p99_overshoot_factor) + " over " +
              std::to_string(tally_.overshoot.count()) + " samples");
    } else {
      run_.PassInvariant(InvariantId::kDeadlineOvershoot);
    }
  }

  // I5: the process-wide obs counters must have moved exactly as many times
  // as the driver observed the corresponding outcome.
  const std::vector<CounterCheck> checks = target_->Counters(tally_);
  if (!checks.empty()) {
    obs::MetricRegistry& reg = obs::MetricRegistry::Default();
    bool i5_ok = true;
    for (size_t i = 0; i < checks.size(); ++i) {
      const uint64_t moved =
          reg.GetCounter(checks[i].name)->Value() - counter_base[i];
      if (moved != checks[i].expected) {
        run_.AddViolation(InvariantId::kMetricsConsistency,
                          std::string(checks[i].name) + " moved " +
                              std::to_string(moved) + ", driver observed " +
                              std::to_string(checks[i].expected));
        i5_ok = false;
      }
    }
    if (i5_ok) run_.PassInvariant(InvariantId::kMetricsConsistency);
  }

  // I6: admission never exceeded the configured limit (across every index
  // incarnation the run went through).
  stats.inflight_high_water = target_->InflightHighWater();
  const size_t limit = spec().index.max_inflight_queries;
  if (limit > 0) {
    if (stats.inflight_high_water > limit) {
      run_.AddViolation(InvariantId::kAdmissionBound,
                        "inflight high water " +
                            std::to_string(stats.inflight_high_water) +
                            " > limit " + std::to_string(limit));
    } else {
      run_.PassInvariant(InvariantId::kAdmissionBound);
    }
  }
}

Result<ScenarioOutcome> Driver::Run() {
  MBI_RETURN_IF_ERROR(spec().Validate());
  MBI_RETURN_IF_ERROR(Setup());

  ScenarioOutcome& out = run_.outcome;
  out.name = spec().name;
  out.seed = spec().seed;
  out.mode = run_.opts.mode;

  std::vector<uint64_t> counter_base;
  for (const CounterCheck& c : target_->Counters(tally_)) {
    counter_base.push_back(
        obs::MetricRegistry::Default().GetCounter(c.name)->Value());
  }

  // Physical wall time for the stats block only — never logged, so it does
  // not affect replay determinism.
  using PhysicalClock = std::chrono::steady_clock;
  // mbi-lint: allow(wall-clock) — stats-only reading, outside the event log
  const PhysicalClock::time_point wall_start = PhysicalClock::now();

  if (run_.concurrent()) {
    budget_testing::ScopedDistanceDelay delay_guard(
        run_.opts.injected_distance_delay_nanos);
    RunPhases();
  } else {
    vclock_.SetNanos(1);  // t=0 would make a fresh deadline pre-expired
    ScopedClockOverride clock_guard(&vclock_);
    RunPhases();
  }

  target_->Finish(&out.stats);
  CheckEndOfRun(counter_base);

  out.stats.queries = tally_.issued;
  out.stats.complete = tally_.complete;
  out.stats.degraded = tally_.degraded;
  out.stats.shed = tally_.shed;
  out.stats.hedges = tally_.hedges;
  out.stats.shard_retries = tally_.retries;
  out.stats.partial_results = tally_.partial;
  const PhysicalClock::time_point wall_end =
      PhysicalClock::now();  // mbi-lint: allow(wall-clock) — stats-only
  out.stats.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();

  Teardown();
  return std::move(out);
}

}  // namespace

std::string ScenarioOutcome::ViolationSummary() const {
  if (violations.empty()) return "all invariants held";
  std::string out;
  for (const Violation& v : violations) {
    out += std::string("[") + InvariantName(v.id) + "] " + v.detail + "\n";
  }
  return out;
}

Result<ScenarioOutcome> RunScenario(const ScenarioSpec& spec,
                                    const RunOptions& options) {
  Driver driver(spec, options);
  return driver.Run();
}

}  // namespace mbi::scenario
