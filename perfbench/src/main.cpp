// perfbench: the repository benchmark.
//
//   perfbench --workload <wire_open|wire_batch|cluster_repl|sim_push>
//             [--seed N] [--seconds S] [--trace 0|1] [--git-sha SHA]
//
// Untraced (--trace 0) runs report the end-to-end metrics; traced runs
// report the per-layer metrics (see README.md). The last line of standard
// output is the result object; the line before it stamps the run (commit,
// host, steal, generator lateness, latency tails with sample counts). A run
// whose correctness checks fail prints no metrics and exits 1.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "host.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Report;
using perfbench::RunSpec;

struct Workload {
  const char* name;
  void (*run)(const RunSpec&, Report&);
  /// Threads that are busy for the whole measured phase.
  std::size_t busy_threads;
  /// Stack builds (trials) of an untraced run. wire_batch's 4M-account
  /// preload is too slow for more than three.
  int setups;
};

const Workload kWorkloads[] = {
    {"wire_open", perfbench::run_wire_open, 3, 5},  // generator, both loops
    {"wire_batch", perfbench::run_wire_batch, 2, 3},  // server + client loops
    {"cluster_repl", perfbench::run_cluster_repl, 3, 5},  // one lane per node
    {"sim_push", perfbench::run_sim_push, 1, 1},  // see run_sim_push
};

const std::vector<std::string> kEndToEnd = {"setup_s", "throughput_ops",
                                            "lat_p50_us", "lat_p90_us", "rss_mb"};

const std::vector<std::string> kPerLayer = {
    "bench.gen_late_p90_us", "bench.gen_late_max_us", "bench.steal_pct",
    "bench.allocs_per_op", "core.settle_ns", "table.acquire_ns",
    "table.batch_ns_per_op", "table.preload_s", "table.bytes_per_account",
    "table.watchdog_checks", "engine.batch_ns_per_op", "engine.queue_depth_p99",
    "protocol.encode_ns.acquire", "protocol.decode_ns.acquire",
    "protocol.encode_ns.batch16", "protocol.decode_ns.batch16",
    "protocol.allocs_per_roundtrip", "runtime.echo_rtt_us_p50",
    "runtime.inproc_rtt_us_p50", "runtime.send_ns", "server.handler_us_p50",
    "server.handler_us_p90", "server.busy_frac", "server.errored", "server.shed",
    "client.issue_us_p50", "client.recv_us_p50", "client.inflight_p99",
    "client.timeouts", "cluster.route_ns", "cluster.node_handler_us_p50",
    "cluster.redirects_per_kop", "cluster.io_retries",
    "cluster.repl_frames_per_kop", "cluster.repl_accounts_per_frame",
    "cluster.repl_lag_max_rounds", "sim.graph_build_s", "sim.event_ns",
    "sim.queue_ns", "net.select_peer_ns", "sim.events", "trace.overhead_pct",
    "trace.overhead_p50_pct"};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <wire_open|wire_batch|cluster_repl|"
               "sim_push> [--seed N] [--seconds S] [--trace 0|1] [--git-sha SHA]\n",
               error.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos)
    usage(flag + " needs a whole number, got '" + text + "'");
  try {
    return std::stoull(text);
  } catch (const std::exception&) {
    usage(flag + " is out of range: '" + text + "'");
  }
}

/// Strict parser: unknown flags, missing values and bad values exit 2.
Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    bool has_value = false;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
      has_value = true;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--git-sha")
      usage("unknown argument '" + std::string(argv[i]) + "'");
    if (!has_value) {
      if (i + 1 >= argc) usage(flag + " needs a value");
      value = argv[++i];
    }
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads)
        if (value == w.name) o.workload = &w;
      if (o.workload == nullptr) usage("unknown workload '" + value + "'");
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_uint(flag, value);
      if (s < 1 || s > 600) usage("--seconds must be within 1..600");
      o.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      o.traced = value == "1";
    } else {
      o.git_sha = value;
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

void stamp_run(const Options& o, const Workload& w, Report& report) {
  using perfbench::json_string;
  const std::size_t cpus = perfbench::host_cpus();
  report.stamp("workload", json_string(w.name));
  report.stamp("seed", std::to_string(o.seed));
  report.stamp("seconds", perfbench::json_number(o.seconds));
  report.stamp("trace", o.traced ? "1" : "0");
  report.stamp("git_sha", json_string(o.git_sha));
  report.stamp("host_cpus", std::to_string(cpus));
  report.stamp("busy_threads", std::to_string(w.busy_threads));
  // A host smaller than the workload still reports, labelled as such.
  report.stamp("undersized_host", cpus < w.busy_threads ? "true" : "false");
  if (cpus < w.busy_threads)
    std::fprintf(stderr,
                 "perfbench: UNDERSIZED HOST: %zu CPUs for %zu busy threads; "
                 "the figures measure time-slicing\n",
                 cpus, w.busy_threads);
  if (w.run != perfbench::run_wire_open)
    report.stamp("gen_late_us", json_string("n/a: closed loop, no schedule"));
}

int run(const Options& o) {
  const Workload& w = *o.workload;
  Report report;
  RunSpec spec;
  spec.seed = o.seed;
  spec.seconds = o.seconds;
  spec.traced = o.traced;
  spec.setups = o.traced ? 1 : w.setups;
  if (!o.traced) {
    w.run(spec, report);
  } else {
    // Rungs first (the table rung reads heap growth), then the other
    // workloads small, so every layer is covered: wire_open covers every
    // wire layer (wire_batch adds none), cluster_repl and sim_push their
    // own. The traced workload runs last, so its own live metrics are the
    // ones reported.
    perfbench::run_rungs(o.seed, report);
    perfbench::run_engine_rung(o.seed, report);
    for (const Workload& other : kWorkloads) {
      if (&other == &w || other.run == perfbench::run_wire_batch) continue;
      RunSpec mini = spec;
      mini.seconds = 0.6;
      mini.warmup = 0.2;
      mini.mini = true;
      other.run(mini, report);
    }
    w.run(spec, report);
  }
  stamp_run(o, w, report);
  report.print_stamp(stdout);
  return report.print_result(stdout, o.traced ? kPerLayer : kEndToEnd) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
