// Pieces every live workload shares: the service policy, preloading, set-up
// timing, the steal probe and the report of the measured windows.
#pragma once

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "host.hpp"
#include "report.hpp"
#include "samples.hpp"
#include "service/account_table.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

/// The namespace policy the service workloads run, as examples/tokend.cpp
/// configures it: generalized A=2 C=8, Δ = 20 ms, 16 shards, and the
/// default 1-in-64 watchdog sampling.
toka::service::ServiceConfig service_config();

/// Creates every key in `keys` (balance 0) directly on `table`.
void preload(toka::service::AccountTable& table,
             const std::vector<std::uint64_t>& keys);

/// The §3.4 watchdog must have audited something and found nothing.
void check_watchdog(const toka::service::TableStats& stats, const char* where,
                    Report& report);

/// The measured timeline from `start`: warm-up until warm_end, then
/// `spec.seconds` until end, split in half at `split` when traced (split =
/// end otherwise).
struct Timeline {
  Timeline(const RunSpec& spec, std::int64_t start);
  std::int64_t warm_end;
  std::int64_t split;
  std::int64_t end;
};

/// One measured window: ops per second and per-request latencies in us.
struct WindowFigures {
  double throughput = 0;
  std::vector<double> lat_us;
};

/// An untraced run is `spec.setups` independent trials: each builds a
/// fresh stack (timed: setup_s is the median build), warms it up and
/// measures spec.seconds / setups on it. The end-to-end figures are the
/// medians over trials, so one trial that drew a bad thread placement or
/// a noisy neighbour does not move the result. A traced run is one trial
/// whose measured time is split into the baseline and traced windows.
///
/// rss_mb is the peak RSS at the end of the run less the RSS just before
/// the first build, so the harness's inputs are not part of it. Call add()
/// after a trial's stack is gone: the latency copies it sorts then reuse
/// the stack's memory instead of raising the peak. Each trial's latency
/// tail goes into the `trials` stamp; nothing is pooled across trials, so
/// the harness's own memory does not grow with the ops a run completes.
class TrialSet {
 public:
  TrialSet(const RunSpec& spec, Report& report);

  int count() const { return count_; }
  /// The spec one trial runs with (its share of the measured seconds).
  const RunSpec& trial_spec() const { return trial_; }

  /// Builds one trial's stack, timing the build.
  template <typename Build>
  auto build(Build&& make) {
    if (setup_s_.empty()) rss_base_mb_ = rss_mb();
    const std::int64_t t0 = now_ns();
    auto stack = make();
    setup_s_.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    return stack;
  }

  /// Files one trial's measured windows.
  void add(PhaseLog& log);
  /// Files one trial measured outside a PhaseLog. Untraced, only `base`
  /// counts. Traced, the two windows give trace.overhead_pct (throughput
  /// lost to timing), trace.overhead_p50_pct (p50 added) and the traced
  /// window's latency tail stamp.
  void add(const WindowFigures& base, const WindowFigures& traced);

  /// Reports setup_s and, untraced, the medians over trials and rss_mb.
  void finish();

 private:
  const RunSpec* spec_;
  Report* report_;
  RunSpec trial_;
  int count_;
  std::vector<double> setup_s_;
  double rss_base_mb_ = 0;
  std::vector<double> throughput_;
  std::vector<double> p50_;
  std::vector<double> p90_;
  std::vector<std::string> tails_;  ///< each trial's latency tail stamp
};

/// Host steal share over [from_ns, to_ns), sampled by a helper thread so
/// the load threads never stop to read /proc.
class StealProbe {
 public:
  StealProbe(std::int64_t from_ns, std::int64_t to_ns);
  ~StealProbe();
  StealProbe(const StealProbe&) = delete;
  StealProbe& operator=(const StealProbe&) = delete;
  /// Joins the probe; the steal percentage.
  double result();

 private:
  CpuTimes before_;
  CpuTimes after_;
  std::thread thread_;
};

/// Stamps the host steal share; traced runs also report it as a metric.
void report_steal(double steal_pct, const RunSpec& spec, Report& report);

/// Nearest-rank percentile of the samples in `buffer`, scaled.
double buffer_percentile(const SampleBuffer& buffer, double q, double scale);
/// Mean of everything offered to `buffer`, scaled (0 when empty).
double buffer_mean(const SampleBuffer& buffer, double scale);

/// Sleeps until the steady clock reads `t_ns`.
void sleep_until_ns(std::int64_t t_ns);

/// A PhaseLog over the Timeline from `start`.
PhaseLog make_log(const RunSpec& spec, std::int64_t start, std::size_t capacity);

/// Waits (bounded) until `done()` holds; false on timeout.
template <typename Done>
bool wait_for(Done&& done, double seconds) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (!done()) {
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

}  // namespace perfbench
