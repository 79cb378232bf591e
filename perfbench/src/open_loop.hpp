// Open-loop arrivals on a fixed schedule.
//
// Request i is *due* at start + i * period whether or not earlier requests
// have completed, and its latency runs from the due time, not from when the
// generator got around to sending it. A generator that stalls therefore
// shows the stall in the latency of every request that was due during it
// (no coordinated omission), and its lateness is reported separately.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

namespace perfbench {

struct OpenLoopSchedule {
  std::int64_t start_ns = 0;
  std::int64_t period_ns = 1;
  std::int64_t due(std::uint64_t i) const {
    return start_ns + static_cast<std::int64_t>(i) * period_ns;
  }
};

/// Issues requests 0..count-1 on `schedule`. `wait_until(due)` blocks until
/// the clock reaches `due` (or returns at once when already past it) and
/// returns the time it woke; `issue(i, due, late_ns)` sends request i.
template <typename WaitUntil, typename Issue>
void drive_open_loop(const OpenLoopSchedule& schedule, std::uint64_t count,
                     WaitUntil&& wait_until, Issue&& issue) {
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::int64_t due = schedule.due(i);
    const std::int64_t woke = wait_until(due);
    issue(i, due, woke - due);
  }
}

/// Real-clock wait: sleeps while the due time is far, spins the last
/// stretch (a 20 us period is below the sleep granularity).
template <typename NowNs>
std::int64_t spin_until(std::int64_t due, NowNs&& now) {
  for (;;) {
    const std::int64_t t = now();
    if (t >= due) return t;
    if (due - t > 300'000)
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - t - 200'000));
  }
}

}  // namespace perfbench
