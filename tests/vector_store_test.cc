// VectorStore: append ordering, timestamp binary search, range windows.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#ifdef __linux__
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "core/vector_store.h"

namespace mbi {
namespace {

std::vector<float> V(std::initializer_list<float> v) { return v; }

TEST(VectorStoreTest, AppendAndRead) {
  VectorStore store(2, Metric::kL2);
  ASSERT_TRUE(store.Append(V({1, 2}).data(), 10).ok());
  ASSERT_TRUE(store.Append(V({3, 4}).data(), 20).ok());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.dim(), 2u);
  EXPECT_FLOAT_EQ(store.GetVector(0)[0], 1);
  EXPECT_FLOAT_EQ(store.GetVector(1)[1], 4);
  EXPECT_EQ(store.GetTimestamp(0), 10);
  EXPECT_EQ(store.GetTimestamp(1), 20);
}

TEST(VectorStoreTest, RejectsOutOfOrderTimestamps) {
  VectorStore store(1, Metric::kL2);
  ASSERT_TRUE(store.Append(V({1}).data(), 5).ok());
  Status s = store.Append(V({2}).data(), 4);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.size(), 1u);  // failed append must not modify the store
}

TEST(VectorStoreTest, RejectsTimestampInt64Max) {
  // No half-open window [a, b) contains INT64_MAX, and RangeWindow's
  // exclusive end (last + 1) would overflow on it.
  VectorStore store(1, Metric::kL2);
  const Timestamp max = std::numeric_limits<Timestamp>::max();
  EXPECT_EQ(store.Append(V({1}).data(), max).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.size(), 0u);
  ASSERT_TRUE(store.Append(V({1}).data(), max - 1).ok());
  EXPECT_EQ(store.RangeWindow(IdRange{0, 1}), (TimeWindow{max - 1, max}));
  EXPECT_EQ(store.Append(V({2}).data(), max).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.size(), 1u);
}

TEST(VectorStoreTest, AcceptsEqualTimestamps) {
  VectorStore store(1, Metric::kL2);
  ASSERT_TRUE(store.Append(V({1}).data(), 5).ok());
  ASSERT_TRUE(store.Append(V({2}).data(), 5).ok());
  EXPECT_EQ(store.size(), 2u);
}

TEST(VectorStoreTest, AppendBatch) {
  VectorStore store(2, Metric::kAngular);
  std::vector<float> data = {1, 0, 0, 1, 1, 1};
  std::vector<Timestamp> ts = {1, 2, 3};
  ASSERT_TRUE(store.AppendBatch(data.data(), ts.data(), 3).ok());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.FirstTimestamp(), 1);
  EXPECT_EQ(store.LastTimestamp(), 3);
}

TEST(VectorStoreTest, FindRangeHalfOpen) {
  VectorStore store(1, Metric::kL2);
  for (Timestamp t : {10, 20, 30, 40, 50}) {
    ASSERT_TRUE(store.Append(V({float(t)}).data(), t).ok());
  }
  EXPECT_EQ(store.FindRange({20, 40}), (IdRange{1, 3}));   // 20, 30
  EXPECT_EQ(store.FindRange({20, 41}), (IdRange{1, 4}));   // 20, 30, 40
  EXPECT_EQ(store.FindRange({0, 100}), (IdRange{0, 5}));
  EXPECT_EQ(store.FindRange({15, 16}).size(), 0);
  EXPECT_EQ(store.FindRange({50, 51}), (IdRange{4, 5}));
  EXPECT_EQ(store.FindRange({51, 99}).size(), 0);
  EXPECT_EQ(store.FindRange({0, 10}).size(), 0);  // exclusive end
}

TEST(VectorStoreTest, FindRangeWithDuplicates) {
  VectorStore store(1, Metric::kL2);
  for (Timestamp t : {10, 20, 20, 20, 30}) {
    ASSERT_TRUE(store.Append(V({1}).data(), t).ok());
  }
  EXPECT_EQ(store.FindRange({20, 21}), (IdRange{1, 4}));
  EXPECT_EQ(store.FindRange({10, 20}), (IdRange{0, 1}));
}

TEST(VectorStoreTest, FindRangeEmptyWindow) {
  VectorStore store(1, Metric::kL2);
  ASSERT_TRUE(store.Append(V({1}).data(), 1).ok());
  EXPECT_TRUE(store.FindRange({5, 5}).Empty());
  EXPECT_TRUE(store.FindRange({7, 3}).Empty());
}

TEST(VectorStoreTest, RangeWindowExclusiveUpper) {
  VectorStore store(1, Metric::kL2);
  for (Timestamp t : {10, 20, 30}) {
    ASSERT_TRUE(store.Append(V({1}).data(), t).ok());
  }
  // Interior range: upper bound is the next vector's timestamp.
  TimeWindow w = store.RangeWindow({0, 2});
  EXPECT_EQ(w.start, 10);
  EXPECT_EQ(w.end, 30);
  // Range touching the end: upper bound is last + 1.
  w = store.RangeWindow({1, 3});
  EXPECT_EQ(w.start, 20);
  EXPECT_EQ(w.end, 31);
}

TEST(VectorStoreTest, RangeWindowRoundTripsThroughFindRange) {
  VectorStore store(1, Metric::kL2);
  for (Timestamp t : {5, 7, 11, 13, 17, 19, 23}) {
    ASSERT_TRUE(store.Append(V({1}).data(), t).ok());
  }
  for (VectorId b = 0; b < 7; ++b) {
    for (VectorId e = b + 1; e <= 7; ++e) {
      IdRange r{b, e};
      EXPECT_EQ(store.FindRange(store.RangeWindow(r)), r)
          << "b=" << b << " e=" << e;
    }
  }
}

// Every row costs its floats and timestamp; only an angular store also
// keeps a squared norm per row, and MemoryBytes counts it.
TEST(VectorStoreTest, MemoryBytesCountsDataTimestampsAndNorms) {
  const std::vector<float> v = {1, 2, 3, 4};
  for (const Metric metric :
       {Metric::kL2, Metric::kAngular, Metric::kInnerProduct}) {
    VectorStore store(4, metric);
    ASSERT_TRUE(store.Append(v.data(), 0).ok());
    ASSERT_TRUE(store.Append(v.data(), 1).ok());
    const bool norms = metric == Metric::kAngular;
    EXPECT_EQ(store.has_norms(), norms) << MetricName(metric);
    const size_t row = 4 * sizeof(float) + sizeof(Timestamp) +
                       (norms ? sizeof(float) : 0);
    EXPECT_EQ(store.BytesPerRow(), row) << MetricName(metric);
    EXPECT_EQ(store.MemoryBytes(), 2 * row) << MetricName(metric);
    EXPECT_EQ(store.Run(0, 2).norms != nullptr, norms) << MetricName(metric);
  }
}

// An angular store writes each row's squared norm at append: bit for bit
// SquaredNorm of the row, through Append and AppendBatch, in every chunk
// (8-row chunks here, so most runs below cross a boundary), and in the
// norms a ContiguousRun carries. A zero row's norm is +0.
TEST(VectorStoreTest, StoredNormsEqualSquaredNormAcrossChunks) {
  constexpr size_t kDim = 19;
  constexpr size_t kRows = 61;
  VectorStore store(kDim, Metric::kAngular, /*chunk_capacity=*/8);
  std::vector<float> rows(kRows * kDim);
  std::vector<Timestamp> ts(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    for (size_t d = 0; d < kDim; ++d) {
      rows[i * kDim + d] =
          i % 7 == 3 ? 0.0f : std::sin(static_cast<float>(i * kDim + d));
    }
    ts[i] = static_cast<Timestamp>(i);
  }
  ASSERT_TRUE(store.Append(rows.data(), 0).ok());
  ASSERT_TRUE(store.AppendBatch(rows.data() + kDim, ts.data() + 1, kRows - 1)
                  .ok());
  for (size_t i = 0; i < kRows; ++i) {
    const VectorId id = static_cast<VectorId>(i);
    EXPECT_EQ(std::bit_cast<uint32_t>(store.GetSquaredNorm(id)),
              std::bit_cast<uint32_t>(SquaredNorm(store.GetVector(id), kDim)))
        << "row " << i;
  }
  EXPECT_EQ(std::bit_cast<uint32_t>(store.GetSquaredNorm(3)), 0u);
  for (VectorId id = 5; id < static_cast<VectorId>(kRows);) {
    const VectorStore::ContiguousRun run =
        store.Run(id, static_cast<VectorId>(kRows));
    for (size_t i = 0; i < run.count; ++i) {
      EXPECT_EQ(std::bit_cast<uint32_t>(run.norms[i]),
                std::bit_cast<uint32_t>(
                    store.GetSquaredNorm(id + static_cast<VectorId>(i))));
    }
    id += static_cast<VectorId>(run.count);
  }
}

// RowScorer scores bit for bit as the store's DistanceFunction does, for
// every metric, one row at a time and in batches from each of the first
// eight rows: to the end of an 8-row chunk, or kMaxBatch rows of a
// 128-row chunk. A zero query and zero rows score 1 under angular.
TEST(RowScorerTest, ScoresAsTheStoreDistanceDoes) {
  constexpr size_t kRows = 90;
  for (const size_t dim : {1, 16, 33, 100}) {
    std::vector<float> rows(kRows * dim);
    std::vector<Timestamp> ts(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      for (size_t d = 0; d < dim; ++d) {
        rows[i * dim + d] =
            i % 11 == 4 ? 0.0f : std::cos(static_cast<float>(3 * i + d));
      }
      ts[i] = static_cast<Timestamp>(i);
    }
    std::vector<float> query(dim), zero(dim, 0.0f);
    for (size_t d = 0; d < dim; ++d) query[d] = std::sin(float(d) + 0.5f);
    for (const Metric metric :
         {Metric::kL2, Metric::kAngular, Metric::kInnerProduct}) {
      SCOPED_TRACE(std::string(MetricName(metric)) + " dim " +
                   std::to_string(dim));
      for (const size_t chunk : {8, 128}) {
        VectorStore store(dim, metric, chunk);
        ASSERT_TRUE(store.AppendBatch(rows.data(), ts.data(), kRows).ok());
        const DistanceFunction& dist = store.distance();
        for (const std::vector<float>* q : {&query, &zero}) {
          const RowScorer score(store, q->data());
          for (size_t i = 0; i < kRows; ++i) {
            const VectorId id = static_cast<VectorId>(i);
            EXPECT_EQ(std::bit_cast<uint32_t>(score(id)),
                      std::bit_cast<uint32_t>(
                          dist(q->data(), store.GetVector(id))))
                << "row " << i;
          }
          for (VectorId begin = 0; begin < 8; ++begin) {
            const size_t count = std::min(
                RowScorer::kMaxBatch,
                store.Run(begin, static_cast<VectorId>(kRows)).count);
            std::vector<float> out(count + 1, -7.0f);
            score.Many(begin, count, out.data());
            for (size_t i = 0; i < count; ++i) {
              EXPECT_EQ(std::bit_cast<uint32_t>(out[i]),
                        std::bit_cast<uint32_t>(
                            score(begin + static_cast<VectorId>(i))))
                  << "chunk " << chunk << " begin " << begin << " row " << i;
            }
            EXPECT_EQ(out[count], -7.0f) << "wrote past count " << count;
          }
        }
        if (metric == Metric::kAngular) {
          EXPECT_EQ(RowScorer(store, zero.data())(0), 1.0f);
          EXPECT_EQ(RowScorer(store, query.data())(4), 1.0f);
        }
      }
    }
  }
}

TEST(VectorStoreTest, UnfilledChunkCapacityStaysUnresident) {
#ifdef __linux__
  // One 64 MiB chunk (16,384 rows of 1,024 floats) holding one row. Above
  // glibc's 32 MiB ceiling for its dynamic mmap threshold, so the chunk is
  // always a fresh mapping and recycled heap pages cannot hide a zero-fill.
  constexpr size_t kDim = 1024;
  constexpr size_t kRows = 16384;
  VectorStore store(kDim, Metric::kL2, kRows);
  const std::vector<float> row(kDim, 1.0f);
  ASSERT_TRUE(store.Append(row.data(), 0).ok());

  const uintptr_t page = static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
  const uintptr_t chunk = reinterpret_cast<uintptr_t>(store.GetVector(0));
  const uintptr_t begin = (chunk + page - 1) / page * page;
  const uintptr_t end = (chunk + kRows * kDim * sizeof(float)) / page * page;
  std::vector<unsigned char> resident((end - begin) / page);
  ASSERT_EQ(::mincore(reinterpret_cast<void*>(begin), end - begin,
                      resident.data()),
            0);
  size_t count = 0;
  for (const unsigned char r : resident) count += r & 1;
  // The row's own pages, plus room for a sanitizer's malloc fill (ASan
  // writes the first 4 KiB). With transparent huge pages set to "always"
  // the kernel may back the row with up to two 2 MiB huge pages.
  std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
  const std::string policy{std::istreambuf_iterator<char>(thp), {}};
  const size_t huge = policy.find("[always]") != std::string::npos
                          ? 2 * (size_t{2} << 20) / page
                          : 0;
  EXPECT_LE(count, 16 + huge) << "of " << resident.size() << " pages";
#else
  GTEST_SKIP() << "mincore is Linux-only here";
#endif
}

TEST(VectorStoreTest, ReadsAcrossManyChunksAreCorrect) {
  // Tiny chunks force many chunk boundaries and several table growths.
  constexpr size_t kDim = 3;
  VectorStore store(kDim, Metric::kL2, /*chunk_capacity=*/8);
  for (size_t i = 0; i < 1000; ++i) {
    float v[kDim] = {float(i), float(i) + 0.5f, -float(i)};
    ASSERT_TRUE(store.Append(v, static_cast<Timestamp>(i)).ok());
  }
  ASSERT_EQ(store.size(), 1000u);
  for (size_t i = 0; i < 1000; ++i) {
    const float* v = store.GetVector(static_cast<VectorId>(i));
    EXPECT_FLOAT_EQ(v[0], float(i));
    EXPECT_FLOAT_EQ(v[1], float(i) + 0.5f);
    EXPECT_FLOAT_EQ(v[2], -float(i));
    EXPECT_EQ(store.GetTimestamp(static_cast<VectorId>(i)),
              static_cast<Timestamp>(i));
  }
}

TEST(VectorStoreTest, PointersStayValidWhileStoreGrows) {
  // The single-writer/multi-reader contract: a pointer obtained from
  // GetVector must never dangle, no matter how much is appended afterwards.
  constexpr size_t kDim = 4;
  VectorStore store(kDim, Metric::kL2, /*chunk_capacity=*/8);
  float v[kDim] = {1, 2, 3, 4};
  ASSERT_TRUE(store.Append(v, 0).ok());
  const float* early = store.GetVector(0);
  for (size_t i = 1; i < 5000; ++i) {
    float w[kDim] = {float(i), 0, 0, 0};
    ASSERT_TRUE(store.Append(w, static_cast<Timestamp>(i)).ok());
  }
  // `early` still points at row 0's storage.
  EXPECT_FLOAT_EQ(early[0], 1);
  EXPECT_FLOAT_EQ(early[3], 4);
  EXPECT_EQ(early, store.GetVector(0));
}

TEST(VectorStoreTest, RunWalksWholeStoreInChunkSizedPieces) {
  constexpr size_t kDim = 2;
  constexpr size_t kChunk = 8;
  VectorStore store(kDim, Metric::kL2, kChunk);
  for (size_t i = 0; i < 50; ++i) {
    float v[kDim] = {float(i), float(2 * i)};
    ASSERT_TRUE(store.Append(v, static_cast<Timestamp>(i)).ok());
  }
  size_t covered = 0;
  for (VectorId id = 0; id < 50;) {
    const VectorStore::ContiguousRun run = store.Run(id, 50);
    ASSERT_GT(run.count, 0u);
    EXPECT_LE(run.count, kChunk);
    for (size_t i = 0; i < run.count; ++i) {
      EXPECT_FLOAT_EQ(run.data[i * kDim], float(id + i));
      EXPECT_EQ(run.timestamps[i], static_cast<Timestamp>(id + i));
    }
    covered += run.count;
    id += static_cast<VectorId>(run.count);
  }
  EXPECT_EQ(covered, 50u);
  // A run clipped by `end` mid-chunk.
  EXPECT_EQ(store.Run(0, 3).count, 3u);
  // A run starting mid-chunk stops at the chunk boundary.
  EXPECT_EQ(store.Run(kChunk + 3, 50).count, kChunk - 3);
}

TEST(VectorStoreTest, FindRangeInPrefixIgnoresLaterAppends) {
  VectorStore store(1, Metric::kL2, /*chunk_capacity=*/4);
  for (Timestamp t : {10, 20, 30, 40, 50, 60}) {
    ASSERT_TRUE(store.Append(V({float(t)}).data(), t).ok());
  }
  // A reader pinned at a 3-vector prefix must not see ids >= 3.
  EXPECT_EQ(store.FindRangeInPrefix({0, 100}, 3), (IdRange{0, 3}));
  EXPECT_EQ(store.FindRangeInPrefix({25, 100}, 3), (IdRange{2, 3}));
  EXPECT_EQ(store.FindRangeInPrefix({35, 100}, 3).size(), 0);
  EXPECT_EQ(store.FindRangeInPrefix({0, 100}, 6), (IdRange{0, 6}));
}

TEST(VectorStoreTest, VectorSliceMatchesRawPointerAccess) {
  constexpr size_t kDim = 3;
  VectorStore store(kDim, Metric::kL2, /*chunk_capacity=*/4);
  std::vector<float> data;
  for (size_t i = 0; i < 20; ++i) {
    for (size_t d = 0; d < kDim; ++d) data.push_back(float(i * kDim + d));
  }
  std::vector<Timestamp> ts(20);
  for (size_t i = 0; i < 20; ++i) ts[i] = static_cast<Timestamp>(i);
  ASSERT_TRUE(store.AppendBatch(data.data(), ts.data(), 20).ok());

  const VectorSlice contiguous(data.data(), kDim);
  const VectorSlice chunked(store, /*base=*/5);
  for (size_t i = 0; i < 15; ++i) {
    const float* a = contiguous.row(5 + i);
    const float* b = chunked.row(i);
    for (size_t d = 0; d < kDim; ++d) EXPECT_FLOAT_EQ(a[d], b[d]);
  }
}

}  // namespace
}  // namespace mbi
