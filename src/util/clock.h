// Injectable time source — the seam that makes deadlines replayable.
//
// Everything in the library that reads the clock (Deadline expiry,
// BudgetTracker elapsed time, WallTimer) goes through NowNanos(), which
// consults a process-global Clock. The default is the monotonic system
// clock and costs one relaxed atomic load plus an indirect call beyond a
// bare steady_clock read — invisible next to the distance computations it
// is amortized against.
//
// Tests and the scenario harness install a VirtualClock that only moves
// when the driver advances it, so a deadline-bounded query either sees
// "expired" or "not expired" deterministically: same seed, same schedule,
// same answer, bit for bit. ScopedClockOverride restores the previous
// source on scope exit so a failing test cannot leak a frozen clock into
// the rest of the suite.
//
// Direct steady_clock reads are still legitimate in exactly one place:
// simulating real compute cost (budget_testing's injected distance delay
// busy-waits on the physical clock — virtual time would never pass — unless
// it is given a VirtualClock to advance instead). Anything else is a
// determinism leak; scripts/lint_invariants.py flags new ones.

#ifndef MBI_UTIL_CLOCK_H_
#define MBI_UTIL_CLOCK_H_

#include <atomic>
#include <cstdint>

namespace mbi {

/// A monotonic time source reporting nanoseconds since an arbitrary epoch.
/// Implementations must be safe to read from any thread.
class Clock {
 public:
  virtual ~Clock() = default;

  virtual int64_t NowNanos() const = 0;

  /// The process-wide monotonic clock (steady_clock-backed singleton).
  static const Clock* Real();
};

/// The currently installed global clock (the real clock unless a test or
/// the scenario harness overrode it).
const Clock* GlobalClock();

/// Installs `clock` as the global time source; nullptr restores the real
/// clock. Prefer ScopedClockOverride. The pointee must outlive the
/// override. Safe to call from any thread, but swapping clocks while
/// queries are in flight mixes epochs — install before starting work.
void SetGlobalClockForTesting(const Clock* clock);

/// Nanoseconds on the global clock. The library-wide "what time is it".
inline int64_t NowNanos() { return GlobalClock()->NowNanos(); }

/// A clock that moves only when told to. Thread-safe: the driver advances
/// it while reader threads poll deadlines against it.
class VirtualClock final : public Clock {
 public:
  explicit VirtualClock(int64_t start_nanos = 0) : nanos_(start_nanos) {}

  int64_t NowNanos() const override {
    return nanos_.load(std::memory_order_acquire);
  }

  void AdvanceNanos(int64_t delta) {
    nanos_.fetch_add(delta, std::memory_order_acq_rel);
  }

  void AdvanceSeconds(double seconds) {
    AdvanceNanos(static_cast<int64_t>(seconds * 1e9));
  }

  void SetNanos(int64_t nanos) {
    nanos_.store(nanos, std::memory_order_release);
  }

 private:
  std::atomic<int64_t> nanos_;
};

/// RAII override of the global clock; restores the previous source (which
/// may itself be an override) on destruction.
class ScopedClockOverride {
 public:
  explicit ScopedClockOverride(const Clock* clock) : previous_(GlobalClock()) {
    SetGlobalClockForTesting(clock);
  }
  ~ScopedClockOverride() { SetGlobalClockForTesting(previous_); }

  ScopedClockOverride(const ScopedClockOverride&) = delete;
  ScopedClockOverride& operator=(const ScopedClockOverride&) = delete;

 private:
  const Clock* previous_;
};

}  // namespace mbi

#endif  // MBI_UTIL_CLOCK_H_
