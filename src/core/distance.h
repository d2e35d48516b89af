// Distance metrics over dense float vectors.
//
// The paper evaluates angular (MovieLens, COMS, GloVe, DEEP) and Euclidean
// (SIFT, GIST) distances; both are provided, plus negative inner product.
// Distances only need to be rank-preserving, so kL2 returns *squared*
// Euclidean distance (cheaper, same ordering).

#ifndef MBI_CORE_DISTANCE_H_
#define MBI_CORE_DISTANCE_H_

#include <cstddef>
#include <string>

namespace mbi {

/// Supported metrics. Smaller value == more similar for every metric.
enum class Metric {
  kL2,            ///< squared Euclidean distance
  kAngular,       ///< 1 - cosine similarity
  kInnerProduct,  ///< negative dot product (for MIPS-style workloads)
};

/// Parses "l2" / "angular" / "ip" (case-sensitive); returns true on success.
bool ParseMetric(const std::string& name, Metric* out);

/// Human-readable metric name.
const char* MetricName(Metric metric);

/// Squared Euclidean distance between a and b (dim floats each).
float L2SquaredDistance(const float* a, const float* b, size_t dim);

/// Angular distance: 1 - <a,b> / (|a||b|). Returns 1 for a zero vector.
float AngularDistance(const float* a, const float* b, size_t dim);

/// Negative inner product: -<a,b>.
float NegativeInnerProduct(const float* a, const float* b, size_t dim);

/// Batch forms: out[r] = kernel(q, rows[r], dim) for every r < count, bit
/// for bit. Rows are passed as pointers, so one batch may span the chunks
/// of a VectorStore.
void L2SquaredDistanceMany(const float* q, const float* const* rows,
                           size_t count, size_t dim, float* out);
void AngularDistanceMany(const float* q, const float* const* rows,
                         size_t count, size_t dim, float* out);
void NegativeInnerProductMany(const float* q, const float* const* rows,
                              size_t count, size_t dim, float* out);

/// Runtime-dispatched distance evaluator.
///
/// Holds the metric and dimension so hot loops call a bare function pointer
/// with no branches. Cheap to copy. A default-constructed instance is L2 in
/// both forms.
class DistanceFunction {
 public:
  DistanceFunction() = default;
  DistanceFunction(Metric metric, size_t dim);

  /// Distance between two vectors of the configured dimension.
  float operator()(const float* a, const float* b) const {
    return fn_(a, b, dim_);
  }

  /// Scores `q` against `count` rows: out[r] == (*this)(q, rows[r]), bit for
  /// bit.
  void Many(const float* q, const float* const* rows, size_t count,
            float* out) const {
    many_(q, rows, count, dim_, out);
  }

  Metric metric() const { return metric_; }
  size_t dim() const { return dim_; }

 private:
  using Fn = float (*)(const float*, const float*, size_t);
  using ManyFn = void (*)(const float*, const float* const*, size_t, size_t,
                          float*);

  Metric metric_ = Metric::kL2;
  size_t dim_ = 0;
  Fn fn_ = &L2SquaredDistance;
  ManyFn many_ = &L2SquaredDistanceMany;
};

}  // namespace mbi

#endif  // MBI_CORE_DISTANCE_H_
