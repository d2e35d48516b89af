#include "core/distance.h"

#include <cmath>
#include <cstring>

#include "util/check.h"

namespace mbi {

bool ParseMetric(const std::string& name, Metric* out) {
  if (name == "l2") {
    *out = Metric::kL2;
  } else if (name == "angular") {
    *out = Metric::kAngular;
  } else if (name == "ip") {
    *out = Metric::kInnerProduct;
  } else {
    return false;
  }
  return true;
}

const char* MetricName(Metric metric) {
  switch (metric) {
    case Metric::kL2: return "l2";
    case Metric::kAngular: return "angular";
    case Metric::kInnerProduct: return "ip";
  }
  return "unknown";
}

float L2SquaredDistance(const float* a, const float* b, size_t dim) {
  // Four accumulators break the dependency chain so GCC/Clang vectorize this
  // into packed FMAs without -ffast-math.
  float s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    float d0 = a[i] - b[i];
    float d1 = a[i + 1] - b[i + 1];
    float d2 = a[i + 2] - b[i + 2];
    float d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  float s = (s0 + s1) + (s2 + s3);
  for (; i < dim; ++i) {
    float d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

namespace {

// The angular and inner-product kernels share one summation order. Element
// i < 16 * (dim / 16) adds into lane i % 16 of two 8-float vectors, the 16
// lanes reduce by a fixed tree (SumLanes), and the last dim % 16 elements
// add one by one after. GCC and Clang lower the vector type to one AVX
// register or two SSE registers with the same lane-wise IEEE operations, so
// every lowering returns the same bits. The build turns off floating-point
// contraction (CMakeLists.txt), which would otherwise fuse the multiply-add
// into an FMA wherever the target has one.
using Float8 = float __attribute__((vector_size(32)));

// x86-64 ELF builds without -mavx2 compile each kernel twice, and the
// dynamic loader (through an ifunc) binds the AVX2 clone where the CPU
// supports it.
#if defined(__x86_64__) && defined(__ELF__) && !defined(__AVX2__)
#define MBI_KERNEL_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define MBI_KERNEL_CLONES
#endif

[[gnu::always_inline]] inline float SumLanes(const Float8& lo,
                                             const Float8& hi) {
  const Float8 s = lo + hi;
  return ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]));
}

struct ProductSums {
  float ab, aa, bb;
};

// sum(a*b), and with kNorms also sum(a*a) and sum(b*b), in the order above.
template <bool kNorms>
[[gnu::always_inline]] inline ProductSums SumProducts(const float* a,
                                                      const float* b,
                                                      size_t dim) {
  Float8 ab_lo = {}, ab_hi = {}, aa_lo = {}, aa_hi = {}, bb_lo = {},
         bb_hi = {};
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    Float8 a_lo, a_hi, b_lo, b_hi;
    std::memcpy(&a_lo, a + i, sizeof(a_lo));
    std::memcpy(&a_hi, a + i + 8, sizeof(a_hi));
    std::memcpy(&b_lo, b + i, sizeof(b_lo));
    std::memcpy(&b_hi, b + i + 8, sizeof(b_hi));
    ab_lo += a_lo * b_lo;
    ab_hi += a_hi * b_hi;
    if constexpr (kNorms) {
      aa_lo += a_lo * a_lo;
      aa_hi += a_hi * a_hi;
      bb_lo += b_lo * b_lo;
      bb_hi += b_hi * b_hi;
    }
  }
  ProductSums s{SumLanes(ab_lo, ab_hi), SumLanes(aa_lo, aa_hi),
                SumLanes(bb_lo, bb_hi)};
  for (; i < dim; ++i) {
    s.ab += a[i] * b[i];
    if constexpr (kNorms) {
      s.aa += a[i] * a[i];
      s.bb += b[i] * b[i];
    }
  }
  return s;
}

}  // namespace

MBI_KERNEL_CLONES
float AngularDistance(const float* a, const float* b, size_t dim) {
  const ProductSums s = SumProducts<true>(a, b, dim);
  float denom = std::sqrt(s.aa * s.bb);
  if (denom <= 0.0f) return 1.0f;
  return 1.0f - s.ab / denom;
}

MBI_KERNEL_CLONES
float NegativeInnerProduct(const float* a, const float* b, size_t dim) {
  return -SumProducts<false>(a, b, dim).ab;
}

DistanceFunction::DistanceFunction(Metric metric, size_t dim)
    : metric_(metric), dim_(dim) {
  MBI_CHECK(dim > 0);
  switch (metric) {
    case Metric::kL2:
      fn_ = &L2SquaredDistance;
      break;
    case Metric::kAngular:
      fn_ = &AngularDistance;
      break;
    case Metric::kInnerProduct:
      fn_ = &NegativeInnerProduct;
      break;
  }
}

}  // namespace mbi
