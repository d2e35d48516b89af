// Overload behavior: admission control (bounded in-flight queries with load
// shedding), ingest backpressure (capped merge-cascade work per Add), and a
// concurrent cancellation stress designed to run under TSan
// (scripts/sanitize_smoke.sh --tsan overload_test).

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/bsbf.h"
#include "data/synthetic.h"
#include "mbi/mbi_index.h"
#include "obs/metrics.h"
#include "util/budget.h"

namespace mbi {
namespace {

class OverloadFixture : public ::testing::Test {
 protected:
  static constexpr size_t kN = 3000;
  static constexpr size_t kDim = 12;

  void SetUp() override {
    SyntheticParams gen;
    gen.dim = kDim;
    gen.seed = 4242;
    data_ = GenerateSynthetic(gen, kN);
    queries_ = GenerateQueries(gen, 16);
  }

  std::unique_ptr<MbiIndex> MakeIndex(const MbiParams& p, size_t n) {
    auto index = std::make_unique<MbiIndex>(kDim, Metric::kL2, p);
    EXPECT_TRUE(
        index->AddBatch(data_.vectors.data(), data_.timestamps.data(), n)
            .ok());
    return index;
  }

  SyntheticData data_;
  std::vector<float> queries_;
};

// ------------------------------------------------- admission control

TEST_F(OverloadFixture, AdmissionLimitIsNeverExceeded) {
  MbiParams p;
  p.leaf_size = 250;
  p.build.degree = 12;
  p.max_inflight_queries = 3;
  p.shed_retry_after_seconds = 0.005;
  auto index = MakeIndex(p, kN);

  obs::Counter* shed_counter =
      obs::MetricRegistry::Default().GetCounter("mbi_query_shed_total");
  const uint64_t shed_before = shed_counter->Value();

  SearchParams sp;
  sp.k = 10;
  const TimeWindow w{data_.timestamps[0], data_.timestamps[kN - 1]};

  std::atomic<size_t> ok{0}, shed{0}, other{0};
  std::vector<std::thread> threads;  // mbi-lint: allow(naked-thread) — stresses SWMR from raw threads
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      QueryContext ctx(t + 1);
      for (int i = 0; i < 100; ++i) {
        Result<SearchResult> r = index->SearchAdmitted(
            queries_.data() + (i % 16) * kDim, w, sp, &ctx);
        if (r.ok()) {
          ok.fetch_add(1);
        } else if (r.status().code() == StatusCode::kResourceExhausted) {
          shed.fetch_add(1);
          // The shed status carries the retry-after hint.
          if (r.status().message().find("retry after") == std::string::npos) {
            other.fetch_add(1);
          }
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(other.load(), 0u);
  EXPECT_GT(ok.load(), 0u);  // the system makes progress under overload
  // The atomic high-water mark proves the limit held at every instant.
  EXPECT_LE(index->inflight_high_water(), p.max_inflight_queries);
  EXPECT_EQ(index->inflight_queries(), 0u);  // all drained
  EXPECT_EQ(shed_counter->Value(), shed_before + shed.load());
}

TEST_F(OverloadFixture, UnlimitedAdmissionAcceptsEverything) {
  MbiParams p;
  p.leaf_size = 250;
  p.build.degree = 12;
  auto index = MakeIndex(p, kN);  // max_inflight_queries = 0 (unlimited)

  SearchParams sp;
  sp.k = 5;
  QueryContext ctx;
  const TimeWindow w{data_.timestamps[0], data_.timestamps[kN - 1]};
  for (int i = 0; i < 10; ++i) {
    Result<SearchResult> r =
        index->SearchAdmitted(queries_.data() + i * kDim, w, sp, &ctx);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().completion, Completion::kComplete);
  }
  EXPECT_EQ(index->inflight_queries(), 0u);
  EXPECT_GE(index->inflight_high_water(), 1u);
}

TEST_F(OverloadFixture, AdmittedInvalidQueryReturnsInvalidArgument) {
  MbiParams p;
  p.leaf_size = 250;
  auto index = MakeIndex(p, kN);
  std::vector<float> bad(kDim, 0.0f);
  bad[3] = std::numeric_limits<float>::quiet_NaN();
  SearchParams sp;
  sp.k = 5;
  QueryContext ctx;
  Result<SearchResult> r = index->SearchAdmitted(
      bad.data(), TimeWindow::All(), sp, &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------- ingest backpressure

TEST_F(OverloadFixture, BackpressureCapsBuildsPerAddAndStaysExact) {
  MbiParams p;
  p.leaf_size = 50;
  p.block_kind = BlockIndexKind::kFlat;  // exact blocks: results comparable
  p.max_blocks_per_add = 1;
  MbiIndex index(kDim, Metric::kL2, p);
  BsbfIndex bsbf(kDim, Metric::kL2);
  ASSERT_TRUE(
      bsbf.AddBatch(data_.vectors.data(), data_.timestamps.data(), kN).ok());

  SearchParams sp;
  sp.k = 10;
  QueryContext ctx;
  size_t max_pending = 0;
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(index.Add(data_.vectors.data() + i * kDim,
                          data_.timestamps[i])
                    .ok());
    max_pending = std::max(max_pending, index.pending_builds());
    // Queries stay exact mid-drain: uncovered full leaves are scanned as
    // part of the committed tail.
    if (i % 237 == 0 && i > 0) {
      const TimeWindow w{data_.timestamps[0], data_.timestamps[i]};
      SearchResult got = index.Search(data_.vector(0), w, sp, &ctx);
      SearchResult want = bsbf.Search(data_.vector(0), 10, w);
      ASSERT_EQ(static_cast<std::vector<Neighbor>&>(got),
                static_cast<std::vector<Neighbor>&>(want))
          << "at insert " << i;
    }
  }
  // Deep cascades got deferred: the cap actually bit at least once.
  EXPECT_GT(max_pending, 0u);

  index.FinishPendingBuilds();
  EXPECT_EQ(index.pending_builds(), 0u);
  // Fully drained: the block forest equals the uncapped one.
  MbiParams q = p;
  q.max_blocks_per_add = 0;
  MbiIndex reference(kDim, Metric::kL2, q);
  ASSERT_TRUE(
      reference.AddBatch(data_.vectors.data(), data_.timestamps.data(), kN)
          .ok());
  EXPECT_EQ(index.num_blocks(), reference.num_blocks());

  const TimeWindow w{data_.timestamps[0], data_.timestamps[kN - 1]};
  SearchResult got = index.Search(data_.vector(0), w, sp, &ctx);
  SearchResult want = bsbf.Search(data_.vector(0), 10, w);
  EXPECT_EQ(static_cast<std::vector<Neighbor>&>(got),
            static_cast<std::vector<Neighbor>&>(want));
}

TEST_F(OverloadFixture, WriterMakesProgressUnderQueryLoad) {
  MbiParams p;
  p.leaf_size = 100;
  p.build.degree = 8;
  p.build.exact_threshold = 512;
  p.max_blocks_per_add = 2;
  p.max_inflight_queries = 4;
  MbiIndex index(kDim, Metric::kL2, p);

  std::atomic<bool> stop{false};
  std::atomic<size_t> answered{0}, shed{0};
  std::vector<std::thread> readers;  // mbi-lint: allow(naked-thread) — stresses SWMR from raw threads
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      QueryContext ctx(t + 99);
      SearchParams sp;
      sp.k = 5;
      while (!stop.load(std::memory_order_acquire)) {
        Result<SearchResult> r = index.SearchAdmitted(
            queries_.data() + (t % 16) * kDim, TimeWindow::All(), sp, &ctx);
        if (r.ok()) {
          answered.fetch_add(1);
        } else {
          shed.fetch_add(1);
        }
      }
    });
  }

  // Writer: full ingest with capped per-Add build work.
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(index.Add(data_.vectors.data() + i * kDim,
                          data_.timestamps[i])
                    .ok());
  }
  index.FinishPendingBuilds();
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(index.size(), kN);
  EXPECT_EQ(index.pending_builds(), 0u);
  EXPECT_GT(answered.load(), 0u);
  EXPECT_LE(index.inflight_high_water(), p.max_inflight_queries);
}

// ------------------------------------------- concurrent cancellation (TSan)

TEST_F(OverloadFixture, ConcurrentCancellationStress) {
  MbiParams p;
  p.leaf_size = 250;
  p.build.degree = 12;
  p.build.exact_threshold = 512;
  auto index = MakeIndex(p, kN);

  constexpr size_t kReaders = 4;
  CancellationToken token;
  std::atomic<bool> stop{false};
  std::atomic<size_t> completed{0}, cancelled{0}, poisoned{0};
  std::atomic<size_t> readers_started{0};  // readers that ran a query

  std::vector<std::thread> readers;  // mbi-lint: allow(naked-thread) — stresses SWMR from raw threads
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      QueryContext ctx(t + 7);
      SearchParams sp;
      sp.k = 10;
      QueryBudget budget;
      budget.cancellation = &token;
      sp.budget = &budget;
      const TimeWindow w{data_.timestamps[0], data_.timestamps[kN - 1]};
      bool counted = false;
      do {
        SearchResult r =
            index->Search(queries_.data() + (t % 16) * kDim, w, sp, &ctx);
        if (r.degraded()) {
          if (r.degrade_reason != DegradeReason::kCancelled) {
            poisoned.fetch_add(1);
          }
          cancelled.fetch_add(1);
        } else {
          completed.fetch_add(1);
        }
        // Degraded or not, every hit must be a valid in-window vector.
        for (const Neighbor& nb : r) {
          const Timestamp ts = index->store().GetTimestamp(nb.id);
          if (ts < data_.timestamps[0] || ts >= data_.timestamps[kN - 1]) {
            poisoned.fetch_add(1);
          }
        }
        if (!counted) {
          counted = true;
          readers_started.fetch_add(1, std::memory_order_release);
        }
      } while (!stop.load(std::memory_order_acquire));
    });
  }

  // Canceller: flip the shared token on and off while queries run. Reset()
  // is documented as only safe with no query in flight under the *same*
  // token for result interpretation, but the flag itself is an atomic —
  // this stress is about data races and partial-result validity. It keeps
  // bursting until every reader has run a query, so slow thread start-up
  // (sanitizer builds) cannot end the bursts before any query ran.
  for (int burst = 0;
       burst < 200 ||
       readers_started.load(std::memory_order_acquire) < kReaders;
       ++burst) {
    token.Cancel();
    std::this_thread::yield();
    token.Reset();
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(poisoned.load(), 0u);
  EXPECT_GT(completed.load() + cancelled.load(), 0u);
}

// ----------------------- checkpoint racing admitted, deadline-bounded load

// Checkpoint is documented safe during live queries (it works off a pinned
// ReadView). Prove it under the worst client: admission-limited,
// deadline-bounded queries kept in flight by an injected distance delay
// while checkpoints run back to back — then recover from the directory and
// verify the checkpointed state survived the contention.
TEST_F(OverloadFixture, CheckpointRacesDeadlineBoundedAdmittedQueries) {
  MbiParams p;
  p.leaf_size = 250;
  p.build.degree = 12;
  p.max_inflight_queries = 3;
  auto index = MakeIndex(p, kN);

  const std::string dir = ::testing::TempDir() + "/overload_ckpt_race";

  budget_testing::ScopedDistanceDelay delay(2000);
  std::atomic<bool> stop{false};
  std::atomic<size_t> ok{0}, shed{0}, poisoned{0};

  std::vector<std::thread> readers;  // mbi-lint: allow(naked-thread) — stresses SWMR from raw threads
  for (int t = 0; t < 6; ++t) {
    readers.emplace_back([&, t] {
      QueryContext ctx(t + 31);
      SearchParams sp;
      sp.k = 10;
      QueryBudget budget = QueryBudget::WithDeadline(0.002);
      sp.budget = &budget;
      const TimeWindow w{data_.timestamps[0], data_.timestamps[kN - 1]};
      while (!stop.load(std::memory_order_acquire)) {
        budget = QueryBudget::WithDeadline(0.002);
        Result<SearchResult> r = index->SearchAdmitted(
            queries_.data() + (t % 16) * kDim, w, sp, &ctx);
        if (!r.ok()) {
          if (r.status().code() == StatusCode::kResourceExhausted) {
            shed.fetch_add(1);
          } else {
            poisoned.fetch_add(1);
          }
          continue;
        }
        ok.fetch_add(1);
        for (const Neighbor& nb : r.value()) {
          const Timestamp ts = index->store().GetTimestamp(nb.id);
          if (!w.Contains(ts)) poisoned.fetch_add(1);
        }
      }
    });
  }

  // Checkpointer: back-to-back checkpoints while the readers hammer away.
  size_t checkpoints = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(index->Checkpoint(dir).ok());
    ++checkpoints;
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(poisoned.load(), 0u);
  EXPECT_GT(ok.load(), 0u);
  EXPECT_EQ(checkpoints, 5u);
  EXPECT_LE(index->inflight_high_water(), p.max_inflight_queries);

  // The directory must recover to exactly the live index's committed state.
  Result<std::unique_ptr<MbiIndex>> rec = MbiIndex::Recover(dir);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec.value()->size(), index->size());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mbi
