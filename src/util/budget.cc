#include "util/budget.h"

#include <algorithm>
#include <chrono>

#include "util/clock.h"

namespace mbi {

namespace budget_testing {

namespace {
// Process-wide injected per-distance delay and the virtual clock it
// advances, if any (test hook). Read once per tracker so an in-flight query
// sees a consistent value.
std::atomic<int64_t> g_distance_delay_nanos{0};
std::atomic<VirtualClock*> g_distance_delay_clock{nullptr};
}  // namespace

void SetInjectedDistanceDelayNanos(int64_t nanos, VirtualClock* clock) {
  g_distance_delay_clock.store(clock, std::memory_order_release);
  g_distance_delay_nanos.store(nanos, std::memory_order_release);
}

int64_t InjectedDistanceDelayNanos() {
  return g_distance_delay_nanos.load(std::memory_order_acquire);
}

VirtualClock* InjectedDistanceDelayClock() {
  return g_distance_delay_clock.load(std::memory_order_acquire);
}

}  // namespace budget_testing

BudgetTracker::BudgetTracker(const QueryBudget* budget)
    : budget_(budget), start_nanos_(NowNanos()) {
  if (budget_ == nullptr) return;
  delay_nanos_ = budget_testing::InjectedDistanceDelayNanos();
  delay_clock_ = budget_testing::InjectedDistanceDelayClock();
  if (!budget_->deadline.infinite()) {
    deadline_total_seconds_ = budget_->deadline.RemainingSeconds();
    if (deadline_total_seconds_ <= 0.0) {
      exhausted_ = true;
      reason_ = DegradeReason::kDeadlineExceeded;
    }
  }
  // With an injected delay each distance evaluation is artificially slow, so
  // the amortized deadline poll must tighten or the overshoot would scale
  // with the delay instead of with the real cost of a clock read.
  if (delay_nanos_ > 0) check_interval_ = 1;
}

void BudgetTracker::SlowCheck() {
  since_check_ = 0;
  if (budget_->cancellation != nullptr && budget_->cancellation->Cancelled()) {
    exhausted_ = true;
    reason_ = DegradeReason::kCancelled;
    return;
  }
  if (budget_->deadline.Expired()) {
    exhausted_ = true;
    reason_ = DegradeReason::kDeadlineExceeded;
  }
}

void BudgetTracker::InjectDelay(uint64_t n) {
  const int64_t nanos = delay_nanos_ * static_cast<int64_t>(n);
  if (delay_clock_ != nullptr) {
    delay_clock_->AdvanceNanos(nanos);
    return;
  }
  // Busy-wait: sleep granularity (~50us+) would swamp microsecond-scale
  // injected delays and make overshoot assertions meaningless. This is the
  // one sanctioned direct steady_clock read (see util/clock.h): it models
  // physical compute cost, which must pass even when logical time is frozen
  // under a VirtualClock.
  using PhysicalClock = std::chrono::steady_clock;
  const auto until = PhysicalClock::now() + std::chrono::nanoseconds(nanos);
  while (PhysicalClock::now() < until) {
  }
}

double BudgetTracker::ElapsedSeconds() const {
  return static_cast<double>(NowNanos() - start_nanos_) * 1e-9;
}

double BudgetTracker::FractionRemaining() const {
  if (budget_ == nullptr) return 1.0;
  if (exhausted_) return 0.0;
  double frac = 1.0;
  if (budget_->max_distance_evals != 0) {
    const uint64_t max = budget_->max_distance_evals;
    const uint64_t used = std::min(distance_evals_, max);
    frac = std::min(frac, static_cast<double>(max - used) /
                              static_cast<double>(max));
  }
  if (budget_->max_hops != 0) {
    const uint64_t max = budget_->max_hops;
    const uint64_t used = std::min(hops_, max);
    frac = std::min(frac, static_cast<double>(max - used) /
                              static_cast<double>(max));
  }
  if (deadline_total_seconds_ > 0.0) {
    frac = std::min(frac, budget_->deadline.RemainingSeconds() /
                              deadline_total_seconds_);
  }
  return frac;
}

}  // namespace mbi
