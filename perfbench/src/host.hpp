// Host facts a result is stamped with, and process-wide counters read from
// outside the library: CPU count, steal time, peak RSS, heap bytes in use
// and heap allocation counts.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPUs this process may run on (its affinity mask).
std::size_t host_cpus();

/// Aggregate jiffies from /proc/stat's "cpu" line.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes read_cpu_times();

/// Pins the threads of a freshly built stack to cores of their own, so a
/// workload's busy threads never queue behind each other (client threads
/// stay off server cores). Construct it before the build;
/// afterwards new_threads() lists the threads the build started, in
/// creation order, and pin() places one of them (or, with tid 0, the
/// caller) on the plan's core-th CPU. The destructor restores the caller's
/// mask. On hosts with fewer than 4 CPUs the plan is inactive and pins
/// nothing.
class CorePlan {
 public:
  CorePlan();
  ~CorePlan();
  CorePlan(const CorePlan&) = delete;
  CorePlan& operator=(const CorePlan&) = delete;

  bool active() const { return cpus_.size() >= 4; }
  std::vector<int> new_threads() const;
  void pin(int tid, std::size_t core);

 private:
  std::vector<int> cpus_;     ///< the caller's original CPUs
  std::vector<int> threads_;  ///< thread ids alive before the build
};

/// Steal share of all CPU time between two readings, in percent.
double steal_pct(const CpuTimes& before, const CpuTimes& after);

/// Peak resident set size (VmHWM), MiB.
double peak_rss_mb();
/// Current resident set size (VmRSS), MiB.
double rss_mb();

/// Heap bytes currently allocated through malloc (all arenas + mmapped).
std::size_t heap_bytes_in_use();

/// Heap allocations (operator new / new[]) counted while counting is on.
/// Counting is off by default: the untraced runs pay one relaxed load per
/// allocation and nothing else.
void set_alloc_counting(bool on);
std::uint64_t allocations();

}  // namespace perfbench
