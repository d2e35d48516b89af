#include "util/clock.h"

#include <chrono>

namespace mbi {

namespace {

class RealClock final : public Clock {
 public:
  int64_t NowNanos() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

const RealClock g_real_clock;

// The override slot. Null means "use the real clock" so the common path
// never pays for installing a default at static-init time.
std::atomic<const Clock*> g_clock_override{nullptr};

}  // namespace

const Clock* GlobalClock() {
  const Clock* c = g_clock_override.load(std::memory_order_acquire);
  return c != nullptr ? c : &g_real_clock;
}

void SetGlobalClockForTesting(const Clock* clock) {
  g_clock_override.store(clock == &g_real_clock ? nullptr : clock,
                         std::memory_order_release);
}

}  // namespace mbi
