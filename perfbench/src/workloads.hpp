// The four workloads and the isolated rungs.
//
// A workload builds its stack `setups` times (setup_s is the median), warms
// up, then measures. Untraced, it reports the end-to-end metrics. Traced,
// it splits the measured time in two windows on the same stack: the first
// with the timing decorators off (the baseline), the second with them on;
// it reports the per-layer metrics of the layers it crosses and
// trace.overhead_pct / trace.overhead_p50_pct from the two windows.
//
// `mini` shrinks a workload (key space, rate, simulated network) so a
// traced run of another workload can still cover this workload's layers.
#pragma once

#include <cstdint>

#include "report.hpp"

namespace perfbench {

struct RunSpec {
  std::uint64_t seed = 1;
  double seconds = 10;  ///< measured time (both windows when traced)
  double warmup = 1;    ///< run but not measured
  bool traced = false;
  bool mini = false;
  int setups = 3;       ///< stack builds; setup_s is their median
};

void run_wire_open(const RunSpec& spec, Report& report);
void run_wire_batch(const RunSpec& spec, Report& report);
void run_cluster_repl(const RunSpec& spec, Report& report);
void run_sim_push(const RunSpec& spec, Report& report);

/// The isolated rungs: each replays one workload's generated inputs
/// through a single layer. Run in every traced run.
void run_rungs(std::uint64_t seed, Report& report);
/// The ShardEngine rung, kept apart so it can go with the engine.
void run_engine_rung(std::uint64_t seed, Report& report);

}  // namespace perfbench
