// Distance kernels: checked against naive references over many dimensions
// (the kernels use unrolled multi-accumulator loops, so off-by-one at tail
// handling is the risk), and their exact bits pinned: a result must not
// depend on the host's vector unit or on compiler flags.

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "core/vector_store.h"
#include "util/rng.h"

namespace mbi {
namespace {

std::vector<float> RandomVec(Rng* rng, size_t dim, float lo = -1, float hi = 1) {
  std::vector<float> v(dim);
  for (auto& x : v) x = lo + (hi - lo) * rng->NextFloat();
  return v;
}

double NaiveL2(const std::vector<float>& a, const std::vector<float>& b) {
  double s = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = static_cast<double>(a[i]) - b[i];
    s += d * d;
  }
  return s;
}

double NaiveDot(const std::vector<float>& a, const std::vector<float>& b) {
  double s = 0;
  for (size_t i = 0; i < a.size(); ++i) s += static_cast<double>(a[i]) * b[i];
  return s;
}

double NaiveAngular(const std::vector<float>& a, const std::vector<float>& b) {
  double dot = NaiveDot(a, b);
  double na = std::sqrt(NaiveDot(a, a));
  double nb = std::sqrt(NaiveDot(b, b));
  if (na * nb <= 0) return 1.0;
  return 1.0 - dot / (na * nb);
}

class DistanceDimTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DistanceDimTest, L2MatchesNaive) {
  const size_t dim = GetParam();
  Rng rng(dim * 31 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    auto a = RandomVec(&rng, dim);
    auto b = RandomVec(&rng, dim);
    EXPECT_NEAR(L2SquaredDistance(a.data(), b.data(), dim), NaiveL2(a, b),
                1e-3 * (1.0 + NaiveL2(a, b)));
  }
}

TEST_P(DistanceDimTest, AngularMatchesNaive) {
  const size_t dim = GetParam();
  Rng rng(dim * 17 + 2);
  for (int trial = 0; trial < 20; ++trial) {
    auto a = RandomVec(&rng, dim);
    auto b = RandomVec(&rng, dim);
    EXPECT_NEAR(AngularDistance(a.data(), b.data(), dim), NaiveAngular(a, b),
                1e-3);
  }
}

TEST_P(DistanceDimTest, InnerProductMatchesNaive) {
  const size_t dim = GetParam();
  Rng rng(dim * 13 + 3);
  for (int trial = 0; trial < 20; ++trial) {
    auto a = RandomVec(&rng, dim);
    auto b = RandomVec(&rng, dim);
    EXPECT_NEAR(NegativeInnerProduct(a.data(), b.data(), dim), -NaiveDot(a, b),
                1e-3 * (1.0 + std::abs(NaiveDot(a, b))));
  }
}

// Tail handling: every residue class of the unroll factors.
INSTANTIATE_TEST_SUITE_P(Dims, DistanceDimTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16,
                                           17, 31, 32, 33, 96, 100, 128, 129,
                                           960));

TEST(DistanceTest, L2SelfDistanceIsZero) {
  Rng rng(77);
  auto a = RandomVec(&rng, 64);
  EXPECT_FLOAT_EQ(L2SquaredDistance(a.data(), a.data(), 64), 0.0f);
}

TEST(DistanceTest, L2IsSymmetric) {
  Rng rng(78);
  auto a = RandomVec(&rng, 33);
  auto b = RandomVec(&rng, 33);
  EXPECT_FLOAT_EQ(L2SquaredDistance(a.data(), b.data(), 33),
                  L2SquaredDistance(b.data(), a.data(), 33));
}

TEST(DistanceTest, AngularSelfDistanceNearZero) {
  Rng rng(79);
  auto a = RandomVec(&rng, 50);
  EXPECT_NEAR(AngularDistance(a.data(), a.data(), 50), 0.0f, 1e-5);
}

TEST(DistanceTest, AngularOppositeVectorsIsTwo) {
  std::vector<float> a = {1, 0, 0};
  std::vector<float> b = {-1, 0, 0};
  EXPECT_NEAR(AngularDistance(a.data(), b.data(), 3), 2.0f, 1e-6);
}

TEST(DistanceTest, AngularOrthogonalIsOne) {
  std::vector<float> a = {1, 0};
  std::vector<float> b = {0, 1};
  EXPECT_NEAR(AngularDistance(a.data(), b.data(), 2), 1.0f, 1e-6);
}

TEST(DistanceTest, AngularZeroVectorReturnsOne) {
  for (size_t dim : {3, 15, 16, 17, 128}) {
    Rng rng(dim);
    auto a = RandomVec(&rng, dim);
    std::vector<float> zero(dim, 0.0f);
    EXPECT_EQ(AngularDistance(zero.data(), a.data(), dim), 1.0f) << dim;
    EXPECT_EQ(AngularDistance(a.data(), zero.data(), dim), 1.0f) << dim;
    EXPECT_EQ(AngularDistance(zero.data(), zero.data(), dim), 1.0f) << dim;
    // The batch form: a zero query against a zero and a non-zero row, and a
    // non-zero query against a zero row.
    const DistanceFunction fn(Metric::kAngular, dim);
    const float* rows[2] = {zero.data(), a.data()};
    float out[2];
    fn.Many(zero.data(), rows, 2, out);
    EXPECT_EQ(out[0], 1.0f) << dim;
    EXPECT_EQ(out[1], 1.0f) << dim;
    fn.Many(a.data(), rows, 1, out);
    EXPECT_EQ(out[0], 1.0f) << dim;
  }
}

TEST(DistanceTest, AngularScaleInvariant) {
  Rng rng(80);
  auto a = RandomVec(&rng, 20);
  auto b = RandomVec(&rng, 20);
  std::vector<float> b2(20);
  for (size_t i = 0; i < 20; ++i) b2[i] = 5.0f * b[i];
  EXPECT_NEAR(AngularDistance(a.data(), b.data(), 20),
              AngularDistance(a.data(), b2.data(), 20), 1e-4);
}

TEST(DistanceTest, InnerProductOfCorrelatedVectorsIsNegative) {
  Rng rng(82);
  for (size_t dim : {1, 7, 16, 33, 100}) {
    auto a = RandomVec(&rng, dim, 0.1f, 1.0f);
    auto b = RandomVec(&rng, dim, 0.1f, 1.0f);
    EXPECT_LT(NegativeInnerProduct(a.data(), b.data(), dim), 0.0f) << dim;
    EXPECT_LT(NegativeInnerProduct(a.data(), a.data(), dim), 0.0f) << dim;
  }
}

// FNV-1a over the bit patterns of each metric's distances on seeded pairs at
// every dim 1..64 (every tail length of the kernels' unroll) plus the
// datasets' 100, 128 and 960. Every value follows the kernels' one 16-lane
// summation order, so it is the same on every x86-64 lowering (AVX2 or SSE2
// clone, -march=native, -O0). A change here means a kernel's summation
// order, or the build's FP contraction, moved.
TEST(DistanceTest, KernelBitsArePinned) {
  std::vector<size_t> dims;
  for (size_t d = 1; d <= 64; ++d) dims.push_back(d);
  dims.insert(dims.end(), {100, 128, 960});
  const Metric metrics[] = {Metric::kL2, Metric::kAngular,
                            Metric::kInnerProduct};
  uint64_t digest[3] = {0xCBF29CE484222325ULL, 0xCBF29CE484222325ULL,
                        0xCBF29CE484222325ULL};
  for (size_t dim : dims) {
    Rng rng(1000 + dim);
    for (int trial = 0; trial < 8; ++trial) {
      auto a = RandomVec(&rng, dim);
      auto b = RandomVec(&rng, dim);
      for (size_t m = 0; m < 3; ++m) {
        const DistanceFunction fn(metrics[m], dim);
        const float d = fn(a.data(), b.data());
        digest[m] ^= std::bit_cast<uint32_t>(d);
        digest[m] *= 0x100000001B3ULL;
      }
    }
  }
  // Every L2 answer and scenario fingerprint depends on the L2 digest.
  EXPECT_EQ(digest[0], 0x48caca5320369640ULL) << std::hex << digest[0];
  EXPECT_EQ(digest[1], 0xf7a571ab33a81789ULL) << std::hex << digest[1];
  EXPECT_EQ(digest[2], 0xf8bf9764c5a7682bULL) << std::hex << digest[2];
}

// The stored-norm kernels an angular VectorStore scores through return the
// angular kernels' bits: on KernelBitsArePinned's pairs (so their digest is
// the pinned angular one), and in batch form against AngularDistanceMany
// for every count 0-9 and 64. SquaredNorm is the inner-product kernel's sum
// of a row with itself. Zero vectors score exactly 1 in both forms.
TEST(DistanceTest, NormKernelsMatchAngularBitForBit) {
  std::vector<size_t> dims;
  for (size_t d = 1; d <= 64; ++d) dims.push_back(d);
  dims.insert(dims.end(), {100, 128, 960});
  uint64_t digest = 0xCBF29CE484222325ULL;
  constexpr size_t kMaxCount = 64;
  for (size_t dim : dims) {
    Rng rng(1000 + dim);
    for (int trial = 0; trial < 8; ++trial) {
      auto a = RandomVec(&rng, dim);
      auto b = RandomVec(&rng, dim);
      const float aa = SquaredNorm(a.data(), dim);
      const float bb = SquaredNorm(b.data(), dim);
      EXPECT_EQ(std::bit_cast<uint32_t>(aa),
                std::bit_cast<uint32_t>(
                    -NegativeInnerProduct(a.data(), a.data(), dim)))
          << "dim " << dim;
      const float d = AngularDistanceFromNorms(a.data(), b.data(), dim, aa, bb);
      EXPECT_EQ(std::bit_cast<uint32_t>(d),
                std::bit_cast<uint32_t>(
                    AngularDistance(a.data(), b.data(), dim)))
          << "dim " << dim << " trial " << trial;
      digest ^= std::bit_cast<uint32_t>(d);
      digest *= 0x100000001B3ULL;
    }

    Rng row_rng(3000 + dim);
    std::vector<std::vector<float>> data(kMaxCount);
    std::vector<const float*> rows(kMaxCount);
    std::vector<float> norms(kMaxCount);
    for (size_t r = 0; r < kMaxCount; ++r) {
      data[r] = RandomVec(&row_rng, dim);
      rows[r] = data[r].data();
      norms[r] = SquaredNorm(rows[r], dim);
    }
    auto q = RandomVec(&row_rng, dim);
    const float qq = SquaredNorm(q.data(), dim);
    for (size_t count : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64}) {
      std::vector<float> got(count + 1, -7.0f), want(count + 1, -7.0f);
      AngularDistanceFromNormsMany(q.data(), rows.data(), norms.data(), count,
                                   dim, qq, got.data());
      AngularDistanceMany(q.data(), rows.data(), count, dim, want.data());
      for (size_t r = 0; r < count; ++r) {
        EXPECT_EQ(std::bit_cast<uint32_t>(got[r]),
                  std::bit_cast<uint32_t>(want[r]))
            << "dim " << dim << " count " << count << " row " << r;
      }
      EXPECT_EQ(got[count], -7.0f) << "wrote past count " << count;
    }
  }
  EXPECT_EQ(digest, 0xf7a571ab33a81789ULL) << std::hex << digest;

  for (size_t dim : {3, 15, 16, 17, 128}) {
    Rng rng(dim);
    auto a = RandomVec(&rng, dim);
    const std::vector<float> zero(dim, 0.0f);
    const float aa = SquaredNorm(a.data(), dim);
    EXPECT_EQ(std::bit_cast<uint32_t>(SquaredNorm(zero.data(), dim)), 0u);
    EXPECT_EQ(AngularDistanceFromNorms(zero.data(), a.data(), dim, 0.0f, aa),
              1.0f);
    EXPECT_EQ(AngularDistanceFromNorms(a.data(), zero.data(), dim, aa, 0.0f),
              1.0f);
    EXPECT_EQ(
        AngularDistanceFromNorms(zero.data(), zero.data(), dim, 0.0f, 0.0f),
        1.0f);
    const float* rows[2] = {zero.data(), a.data()};
    const float norms[2] = {0.0f, aa};
    float out[2];
    AngularDistanceFromNormsMany(zero.data(), rows, norms, 2, dim, 0.0f, out);
    EXPECT_EQ(out[0], 1.0f) << dim;
    EXPECT_EQ(out[1], 1.0f) << dim;
    AngularDistanceFromNormsMany(a.data(), rows, norms, 1, dim, aa, out);
    EXPECT_EQ(out[0], 1.0f) << dim;
  }
}

TEST(DistanceFunctionTest, DispatchesAllMetrics) {
  using Kernel = float (*)(const float*, const float*, size_t);
  const struct {
    Metric metric;
    Kernel kernel;
  } cases[] = {{Metric::kL2, &L2SquaredDistance},
               {Metric::kAngular, &AngularDistance},
               {Metric::kInnerProduct, &NegativeInnerProduct}};
  Rng rng(81);
  for (size_t dim : {1, 5, 16, 24, 31, 32, 100, 128, 960}) {
    auto a = RandomVec(&rng, dim);
    auto b = RandomVec(&rng, dim);
    for (const auto& c : cases) {
      const DistanceFunction fn(c.metric, dim);
      EXPECT_EQ(std::bit_cast<uint32_t>(fn(a.data(), b.data())),
                std::bit_cast<uint32_t>(c.kernel(a.data(), b.data(), dim)))
          << MetricName(c.metric) << " dim " << dim;
      EXPECT_EQ(fn.metric(), c.metric);
      EXPECT_EQ(fn.dim(), dim);
    }
  }
  // The default instance is L2 (dim 0) in both forms: +0, where inner
  // product would give -0 and angular 1.
  const DistanceFunction l2;
  EXPECT_EQ(l2.metric(), Metric::kL2);
  const float x = 0.5f;
  const float* row = &x;
  float out = -1.0f;
  l2.Many(&x, &row, 1, &out);
  EXPECT_EQ(std::bit_cast<uint32_t>(out), 0u);
  EXPECT_EQ(std::bit_cast<uint32_t>(l2(&x, &x)), 0u);

  // The batch form scores q against each row with exactly the pair
  // kernel's bits, for every tail length of the row blocks (counts 0-9) and
  // of the lane loop (dims 1-64). Rows come from a store of 8-row chunks
  // starting mid-chunk, so every batch of more than three rows straddles a
  // chunk boundary.
  std::vector<size_t> dims;
  for (size_t d = 1; d <= 64; ++d) dims.push_back(d);
  dims.insert(dims.end(), {100, 128, 960});
  constexpr VectorId kFirst = 5;
  constexpr size_t kMaxCount = 64;
  for (size_t dim : dims) {
    Rng row_rng(2000 + dim);
    VectorStore store(dim, Metric::kL2, /*chunk_capacity=*/8);
    for (size_t i = 0; i < kFirst + kMaxCount; ++i) {
      auto v = RandomVec(&row_rng, dim);
      ASSERT_TRUE(store.Append(v.data(), static_cast<Timestamp>(i)).ok());
    }
    std::vector<const float*> rows(kMaxCount);
    for (size_t r = 0; r < kMaxCount; ++r) {
      rows[r] = store.GetVector(kFirst + static_cast<VectorId>(r));
    }
    auto q = RandomVec(&row_rng, dim);
    for (Metric metric :
         {Metric::kL2, Metric::kAngular, Metric::kInnerProduct}) {
      const DistanceFunction fn(metric, dim);
      for (size_t count : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64}) {
        std::vector<float> batch(count + 1, -7.0f);
        fn.Many(q.data(), rows.data(), count, batch.data());
        for (size_t r = 0; r < count; ++r) {
          EXPECT_EQ(std::bit_cast<uint32_t>(batch[r]),
                    std::bit_cast<uint32_t>(fn(q.data(), rows[r])))
              << MetricName(metric) << " dim " << dim << " count " << count
              << " row " << r;
        }
        EXPECT_EQ(batch[count], -7.0f) << "wrote past count " << count;
      }
    }
  }
}

TEST(MetricTest, ParseAndName) {
  Metric m;
  EXPECT_TRUE(ParseMetric("l2", &m));
  EXPECT_EQ(m, Metric::kL2);
  EXPECT_TRUE(ParseMetric("angular", &m));
  EXPECT_EQ(m, Metric::kAngular);
  EXPECT_TRUE(ParseMetric("ip", &m));
  EXPECT_EQ(m, Metric::kInnerProduct);
  EXPECT_FALSE(ParseMetric("cosine", &m));
  EXPECT_STREQ(MetricName(Metric::kL2), "l2");
  EXPECT_STREQ(MetricName(Metric::kAngular), "angular");
  EXPECT_STREQ(MetricName(Metric::kInnerProduct), "ip");
}

}  // namespace
}  // namespace mbi
