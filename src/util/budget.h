// Per-query execution budgets: deadlines, work caps, and cancellation.
//
// Production ANN services bound tail latency by treating the per-query work
// budget as a first-class parameter (DiskANN's beam/IO budgets, Milvus's
// query-node admission control). This header provides the three pieces MBI
// threads through every search path:
//
//   Deadline          — a wall-clock point after which a query must wind down.
//   CancellationToken — a shared flag an external caller can flip to abort
//                       an in-flight query (safe from any thread).
//   QueryBudget       — the immutable per-query limits: deadline, max
//                       distance computations, max graph hops, cancellation.
//   BudgetTracker     — the mutable per-query spend accumulator. Searchers
//                       charge work to it (ChargeDistance / ChargeHop) and
//                       stop expanding once it reports exhaustion. Deadline
//                       and cancellation are polled on an amortized schedule
//                       so the hot path stays one branch + one add.
//
// A search that exhausts its budget returns best-effort partial results: it
// stops *adding* work but never invents results, so every neighbor returned
// under a budget is exactly as valid as one returned without.

#ifndef MBI_UTIL_BUDGET_H_
#define MBI_UTIL_BUDGET_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>

#include "core/types.h"
#include "util/clock.h"

namespace mbi {

/// A wall-clock deadline on the injectable monotonic clock (util/clock.h).
/// Default-constructed deadlines are infinite (never expire). Under a
/// VirtualClock a deadline expires only when the test or scenario driver
/// advances time — deterministic degradation, same seed same answer.
class Deadline {
 public:
  Deadline() = default;

  /// A deadline `seconds` from now (<= 0 means already expired).
  static Deadline After(double seconds) {
    Deadline d;
    d.has_deadline_ = true;
    d.at_nanos_ = NowNanos() + static_cast<int64_t>(seconds * 1e9);
    return d;
  }

  static Deadline Infinite() { return Deadline(); }

  bool infinite() const { return !has_deadline_; }

  bool Expired() const { return has_deadline_ && NowNanos() >= at_nanos_; }

  /// Seconds until expiry; +inf for an infinite deadline, 0 when expired.
  double RemainingSeconds() const {
    if (!has_deadline_) return std::numeric_limits<double>::infinity();
    const double r = static_cast<double>(at_nanos_ - NowNanos()) * 1e-9;
    return r > 0.0 ? r : 0.0;
  }

 private:
  bool has_deadline_ = false;
  int64_t at_nanos_ = 0;
};

/// A cooperative cancellation flag shared between the caller (any thread)
/// and the query it governs. One token may cover many queries.
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool Cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }
  /// Re-arms the token for reuse. Only safe when no query is in flight.
  void Reset() { cancelled_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// The immutable limits of one query. A zero work cap means "unlimited";
/// a default QueryBudget constrains nothing.
struct QueryBudget {
  Deadline deadline;
  uint64_t max_distance_evals = 0;  ///< 0 = unlimited
  uint64_t max_hops = 0;            ///< 0 = unlimited graph expansions
  const CancellationToken* cancellation = nullptr;

  static QueryBudget Unlimited() { return QueryBudget{}; }

  static QueryBudget WithDeadline(double seconds) {
    QueryBudget b;
    b.deadline = Deadline::After(seconds);
    return b;
  }

  /// True if any dimension actually constrains the query.
  bool Bounded() const {
    return !deadline.infinite() || max_distance_evals != 0 || max_hops != 0 ||
           cancellation != nullptr;
  }

  /// Child budget for one of `shares` concurrent sub-searches (shard
  /// fan-out). The deadline and cancellation token are *shared* — sub-
  /// searches run in parallel against the same wall clock — while the work
  /// caps are divided so the fan-out as a whole spends no more distance
  /// evaluations or hops than the parent allowed. `shares` must be >= 1.
  QueryBudget Slice(size_t shares) const {
    QueryBudget child = *this;
    if (shares > 1) {
      if (max_distance_evals != 0) {
        child.max_distance_evals =
            std::max<uint64_t>(1, max_distance_evals / shares);
      }
      if (max_hops != 0) {
        child.max_hops = std::max<uint64_t>(1, max_hops / shares);
      }
    }
    return child;
  }
};

namespace budget_testing {

/// Fault-injection hook: every ChargeDistance(n) on an *active* tracker
/// busy-waits n * `nanos` before returning, simulating expensive distance
/// computations (large dim, cold storage). With a `clock` the delay instead
/// advances that VirtualClock (install it as the global clock too), so a
/// deadline test measures the same virtual time on every run. 0 disables.
/// Tests only.
void SetInjectedDistanceDelayNanos(int64_t nanos,
                                   VirtualClock* clock = nullptr);
int64_t InjectedDistanceDelayNanos();
VirtualClock* InjectedDistanceDelayClock();

/// RAII guard restoring the previous injected delay and clock.
class ScopedDistanceDelay {
 public:
  explicit ScopedDistanceDelay(int64_t nanos, VirtualClock* clock = nullptr)
      : previous_(InjectedDistanceDelayNanos()),
        previous_clock_(InjectedDistanceDelayClock()) {
    SetInjectedDistanceDelayNanos(nanos, clock);
  }
  ~ScopedDistanceDelay() {
    SetInjectedDistanceDelayNanos(previous_, previous_clock_);
  }

 private:
  int64_t previous_;
  VirtualClock* previous_clock_;
};

}  // namespace budget_testing

/// Mutable spend state of one query against a QueryBudget. Not thread-safe;
/// one tracker per query, shared across the query's per-block searches so
/// the whole query — not each block — is bounded.
///
/// A tracker built from a null budget is inactive: every charge is a single
/// predictable branch and the query runs exactly as before budgets existed.
class BudgetTracker {
 public:
  /// Inactive tracker (no budget, charges are no-ops).
  BudgetTracker() = default;

  /// Tracks spend against `budget` (may be null => inactive; the pointed-to
  /// budget must outlive the tracker).
  explicit BudgetTracker(const QueryBudget* budget);

  bool active() const { return budget_ != nullptr; }
  bool bounded() const { return budget_ != nullptr && budget_->Bounded(); }

  /// Charges `n` distance evaluations. Returns false once the budget is
  /// exhausted (the caller should stop expanding work).
  bool ChargeDistance(uint64_t n = 1) {
    if (budget_ == nullptr) return true;
    distance_evals_ += n;
    if (delay_nanos_ > 0) InjectDelay(n);
    if (exhausted_) return false;
    if (budget_->max_distance_evals != 0 &&
        distance_evals_ > budget_->max_distance_evals) {
      exhausted_ = true;
      reason_ = DegradeReason::kDistanceBudget;
      return false;
    }
    since_check_ += n;
    if (since_check_ >= check_interval_) SlowCheck();
    return !exhausted_;
  }

  /// Charges one graph hop (a candidate-pool pop / vertex expansion).
  bool ChargeHop() {
    if (budget_ == nullptr) return true;
    ++hops_;
    if (exhausted_) return false;
    if (budget_->max_hops != 0 && hops_ > budget_->max_hops) {
      exhausted_ = true;
      reason_ = DegradeReason::kHopBudget;
      return false;
    }
    ++since_check_;
    if (since_check_ >= check_interval_) SlowCheck();
    return !exhausted_;
  }

  /// Unamortized deadline/cancellation poll (block boundaries, loop heads of
  /// coarse-grained work).
  void CheckNow() {
    if (budget_ != nullptr && !exhausted_) SlowCheck();
  }

  bool Exhausted() const { return exhausted_; }
  DegradeReason reason() const { return reason_; }

  uint64_t distance_evals() const { return distance_evals_; }
  uint64_t hops() const { return hops_; }

  /// Seconds since the tracker was created (== query start).
  double ElapsedSeconds() const;

  /// Smallest remaining fraction across the bounded dimensions, in [0, 1];
  /// 1.0 when nothing is bounded. Drives the ef-shrink degradation policy:
  /// as the budget drains, later blocks get proportionally smaller candidate
  /// pools before any block is skipped outright.
  double FractionRemaining() const;

 private:
  void SlowCheck();
  void InjectDelay(uint64_t n);

  const QueryBudget* budget_ = nullptr;
  uint64_t distance_evals_ = 0;
  uint64_t hops_ = 0;
  uint64_t since_check_ = 0;
  uint64_t check_interval_ = 64;
  int64_t delay_nanos_ = 0;
  VirtualClock* delay_clock_ = nullptr;  // advanced instead of busy-waiting
  bool exhausted_ = false;
  DegradeReason reason_ = DegradeReason::kNone;
  double deadline_total_seconds_ = 0.0;  // <= 0 when no deadline
  int64_t start_nanos_ = 0;              // global-clock query start
};

}  // namespace mbi

#endif  // MBI_UTIL_BUDGET_H_
