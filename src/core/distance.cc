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

namespace {

// Every kernel shares one summation order. Element i < 16 * (dim / 16)
// adds into lane i % 16 of two 8-float vectors, the 16 lanes reduce by a
// fixed tree (SumLanes), and the last dim % 16 elements add one by one
// after. GCC and Clang lower the vector type to one AVX register or two SSE
// registers with the same lane-wise IEEE operations, so every lowering
// returns the same bits. The build turns off floating-point contraction
// (CMakeLists.txt), which would otherwise fuse the multiply-add into an FMA
// wherever the target has one.
using Float8 = float __attribute__((vector_size(32)));

// x86-64 ELF builds without -mavx2 compile each kernel twice, and the
// dynamic loader (through an ifunc) binds the AVX2 clone where the CPU
// supports it. ThreadSanitizer builds keep one copy: GCC's ifunc resolver
// runs before the TSan runtime is initialized and crashes the program at
// load. The clones return the same bits, so only speed differs.
#if defined(__x86_64__) && defined(__ELF__) && !defined(__AVX2__) && \
    !defined(__SANITIZE_THREAD__)
#define MBI_KERNEL_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define MBI_KERNEL_CLONES
#endif

[[gnu::always_inline]] inline float SumLanes(const Float8& lo,
                                             const Float8& hi) {
  const Float8 s = lo + hi;
  return ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]));
}

// Loads 16 floats as lanes 0-7 (lo) and 8-15 (hi).
[[gnu::always_inline]] inline void Load16(const float* p, Float8& lo,
                                          Float8& hi) {
  std::memcpy(&lo, p, sizeof(lo));
  std::memcpy(&hi, p + 8, sizeof(hi));
}

// L2 sums squared differences (kSquares) and inner product sums products.
// Term is one element's addend; Accumulate adds one 16-element step of row
// `b` into that row's two lane accumulators.
template <bool kSquares>
[[gnu::always_inline]] inline float Term(float a, float b) {
  if constexpr (kSquares) {
    const float d = a - b;
    return d * d;
  } else {
    return a * b;
  }
}

template <bool kSquares>
[[gnu::always_inline]] inline void Accumulate(const Float8& q_lo,
                                              const Float8& q_hi,
                                              const float* b, Float8& lo,
                                              Float8& hi) {
  Float8 b_lo, b_hi;
  Load16(b, b_lo, b_hi);
  if constexpr (kSquares) {
    const Float8 d_lo = q_lo - b_lo, d_hi = q_hi - b_hi;
    lo += d_lo * d_lo;
    hi += d_hi * d_hi;
  } else {
    lo += q_lo * b_lo;
    hi += q_hi * b_hi;
  }
}

// The sum of Term(a[i], b[i]) over one pair of rows.
template <bool kSquares>
[[gnu::always_inline]] inline float SumRow(const float* a, const float* b,
                                           size_t dim) {
  Float8 lo = {}, hi = {};
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    Float8 a_lo, a_hi;
    Load16(a + i, a_lo, a_hi);
    Accumulate<kSquares>(a_lo, a_hi, b + i, lo, hi);
  }
  float s = SumLanes(lo, hi);
  for (; i < dim; ++i) s += Term<kSquares>(a[i], b[i]);
  return s;
}

// out[r] = SumRow(q, rows[r]) for every r < count. Four rows share each
// load of q; their eight accumulators are named locals so they stay in
// registers (an array of them spills).
template <bool kSquares>
[[gnu::always_inline]] inline void SumRows(const float* q,
                                           const float* const* rows,
                                           size_t count, size_t dim,
                                           float* out) {
  size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    const float* b0 = rows[r];
    const float* b1 = rows[r + 1];
    const float* b2 = rows[r + 2];
    const float* b3 = rows[r + 3];
    Float8 lo0 = {}, hi0 = {}, lo1 = {}, hi1 = {}, lo2 = {}, hi2 = {},
           lo3 = {}, hi3 = {};
    size_t i = 0;
    for (; i + 16 <= dim; i += 16) {
      Float8 q_lo, q_hi;
      Load16(q + i, q_lo, q_hi);
      Accumulate<kSquares>(q_lo, q_hi, b0 + i, lo0, hi0);
      Accumulate<kSquares>(q_lo, q_hi, b1 + i, lo1, hi1);
      Accumulate<kSquares>(q_lo, q_hi, b2 + i, lo2, hi2);
      Accumulate<kSquares>(q_lo, q_hi, b3 + i, lo3, hi3);
    }
    float s0 = SumLanes(lo0, hi0), s1 = SumLanes(lo1, hi1),
          s2 = SumLanes(lo2, hi2), s3 = SumLanes(lo3, hi3);
    for (; i < dim; ++i) {
      s0 += Term<kSquares>(q[i], b0[i]);
      s1 += Term<kSquares>(q[i], b1[i]);
      s2 += Term<kSquares>(q[i], b2[i]);
      s3 += Term<kSquares>(q[i], b3[i]);
    }
    out[r] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < count; ++r) out[r] = SumRow<kSquares>(q, rows[r], dim);
}

// Adds one 16-element step of row `b` into its sum(q*b) and sum(b*b) lanes.
[[gnu::always_inline]] inline void AccumulateCosine(
    const Float8& q_lo, const Float8& q_hi, const float* b, Float8& ab_lo,
    Float8& ab_hi, Float8& bb_lo, Float8& bb_hi) {
  Float8 b_lo, b_hi;
  Load16(b, b_lo, b_hi);
  ab_lo += q_lo * b_lo;
  ab_hi += q_hi * b_hi;
  bb_lo += b_lo * b_lo;
  bb_hi += b_hi * b_hi;
}

[[gnu::always_inline]] inline float Cosine(float ab, float aa, float bb) {
  const float denom = std::sqrt(aa * bb);
  if (denom <= 0.0f) return 1.0f;
  return 1.0f - ab / denom;
}

// The angular distance of one pair, with sum(a*a) summed beside the rest.
[[gnu::always_inline]] inline float AngularRow(const float* a, const float* b,
                                               size_t dim) {
  Float8 ab_lo = {}, ab_hi = {}, aa_lo = {}, aa_hi = {}, bb_lo = {},
         bb_hi = {};
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    Float8 a_lo, a_hi;
    Load16(a + i, a_lo, a_hi);
    aa_lo += a_lo * a_lo;
    aa_hi += a_hi * a_hi;
    AccumulateCosine(a_lo, a_hi, b + i, ab_lo, ab_hi, bb_lo, bb_hi);
  }
  float ab = SumLanes(ab_lo, ab_hi), aa = SumLanes(aa_lo, aa_hi),
        bb = SumLanes(bb_lo, bb_hi);
  for (; i < dim; ++i) {
    ab += a[i] * b[i];
    aa += a[i] * a[i];
    bb += b[i] * b[i];
  }
  return Cosine(ab, aa, bb);
}

}  // namespace

MBI_KERNEL_CLONES
float L2SquaredDistance(const float* a, const float* b, size_t dim) {
  return SumRow<true>(a, b, dim);
}

MBI_KERNEL_CLONES
float AngularDistance(const float* a, const float* b, size_t dim) {
  return AngularRow(a, b, dim);
}

MBI_KERNEL_CLONES
float NegativeInnerProduct(const float* a, const float* b, size_t dim) {
  return -SumRow<false>(a, b, dim);
}

MBI_KERNEL_CLONES
void L2SquaredDistanceMany(const float* q, const float* const* rows,
                           size_t count, size_t dim, float* out) {
  SumRows<true>(q, rows, count, dim, out);
}

MBI_KERNEL_CLONES
void AngularDistanceMany(const float* q, const float* const* rows,
                         size_t count, size_t dim, float* out) {
  // sum(q*q) depends on q alone and sums in the pair kernel's order, so it
  // is computed once per call.
  const float aa = SumRow<false>(q, q, dim);
  size_t r = 0;
  for (; r + 2 <= count; r += 2) {
    const float* b0 = rows[r];
    const float* b1 = rows[r + 1];
    Float8 ab0_lo = {}, ab0_hi = {}, bb0_lo = {}, bb0_hi = {}, ab1_lo = {},
           ab1_hi = {}, bb1_lo = {}, bb1_hi = {};
    size_t i = 0;
    for (; i + 16 <= dim; i += 16) {
      Float8 q_lo, q_hi;
      Load16(q + i, q_lo, q_hi);
      AccumulateCosine(q_lo, q_hi, b0 + i, ab0_lo, ab0_hi, bb0_lo, bb0_hi);
      AccumulateCosine(q_lo, q_hi, b1 + i, ab1_lo, ab1_hi, bb1_lo, bb1_hi);
    }
    float ab0 = SumLanes(ab0_lo, ab0_hi), bb0 = SumLanes(bb0_lo, bb0_hi),
          ab1 = SumLanes(ab1_lo, ab1_hi), bb1 = SumLanes(bb1_lo, bb1_hi);
    for (; i < dim; ++i) {
      ab0 += q[i] * b0[i];
      bb0 += b0[i] * b0[i];
      ab1 += q[i] * b1[i];
      bb1 += b1[i] * b1[i];
    }
    out[r] = Cosine(ab0, aa, bb0);
    out[r + 1] = Cosine(ab1, aa, bb1);
  }
  if (r < count) out[r] = AngularRow(q, rows[r], dim);
}

MBI_KERNEL_CLONES
void NegativeInnerProductMany(const float* q, const float* const* rows,
                              size_t count, size_t dim, float* out) {
  SumRows<false>(q, rows, count, dim, out);
  for (size_t r = 0; r < count; ++r) out[r] = -out[r];
}

// AngularRow sums each of <a,b>, |a|^2 and |b|^2 in SumRow's lane order,
// so the three sums may come from separate calls, and the two norms from
// any earlier time, without changing a bit of Cosine's result.
MBI_KERNEL_CLONES
float SquaredNorm(const float* a, size_t dim) {
  return SumRow<false>(a, a, dim);
}

MBI_KERNEL_CLONES
float AngularDistanceFromNorms(const float* a, const float* b, size_t dim,
                               float aa, float bb) {
  return Cosine(SumRow<false>(a, b, dim), aa, bb);
}

MBI_KERNEL_CLONES
void AngularDistanceFromNormsMany(const float* q, const float* const* rows,
                                  const float* norms, size_t count, size_t dim,
                                  float qq, float* out) {
  SumRows<false>(q, rows, count, dim, out);
  for (size_t r = 0; r < count; ++r) out[r] = Cosine(out[r], qq, norms[r]);
}

DistanceFunction::DistanceFunction(Metric metric, size_t dim)
    : metric_(metric), dim_(dim), fn_(nullptr), many_(nullptr) {
  MBI_CHECK(dim > 0);
  switch (metric) {
    case Metric::kL2:
      fn_ = &L2SquaredDistance;
      many_ = &L2SquaredDistanceMany;
      break;
    case Metric::kAngular:
      fn_ = &AngularDistance;
      many_ = &AngularDistanceMany;
      break;
    case Metric::kInnerProduct:
      fn_ = &NegativeInnerProduct;
      many_ = &NegativeInnerProductMany;
      break;
  }
}

}  // namespace mbi
