// sim_push: apps::run_experiment for push gossip, failure-free, at N=50,000
// with the generalized token account A=5 C=10 over 100 periods. It is the
// only workload that runs the sim, net and apps layers, and it shares core
// with the service.
//
// The simulation is deterministic per experiment seed, so every run checks
// its event count and final metric against values pinned here. The run's
// --seed picks one of kPinnedSeeds experiment seeds.
#include <cmath>
#include <cstdio>

#include "apps/experiment.hpp"
#include "harness.hpp"
#include "net/graph.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kPinnedSeeds = 8;

struct Pin {
  std::uint64_t events = 0;
  double final_metric = 0;  ///< Eq. 7 lag (updates) at the horizon
};

/// Pinned outcomes for experiment seeds 1..kPinnedSeeds.
constexpr Pin kFullPins[kPinnedSeeds] = {
    {9777793, 20.980419999999981}, {9773802, 22.892600000000016},
    {9777052, 19.761899999999969}, {9743531, 25.774900000000002},
    {9784180, 15.459259999999972}, {9780790, 20.891100000000051},
    {9710322, 29.96115999999995},  {9755406, 23.668440000000032},
};
/// The same for the mini configuration (N=5,000, 50 periods).
constexpr Pin kMiniPins[kPinnedSeeds] = {
    {477331, 23.629999999999995}, {477280, 21.186399999999992},
    {474783, 23.201799999999992}, {479354, 21.882400000000018},
    {477497, 19.602800000000002}, {477098, 22.173000000000002},
    {478403, 17.755999999999972}, {480641, 15.713000000000022},
};

toka::apps::ExperimentConfig sim_config(bool mini, std::uint64_t seed) {
  toka::apps::ExperimentConfig cfg;
  cfg.app = toka::apps::AppKind::kPushGossip;
  cfg.scenario = toka::apps::Scenario::kFailureFree;
  cfg.node_count = mini ? 5'000 : 50'000;
  cfg.strategy.kind = toka::core::StrategyKind::kGeneralized;
  cfg.strategy.a_param = 5;
  cfg.strategy.c_param = 10;
  cfg.timing.horizon = cfg.timing.delta * (mini ? 50 : 100);
  cfg.seed = seed;
  cfg.threads = 1;
  return cfg;
}

}  // namespace

void run_sim_push(const RunSpec& spec, Report& report) {
  const std::uint64_t exp_seed = 1 + (spec.seed + kPinnedSeeds - 1) % kPinnedSeeds;
  const toka::apps::ExperimentConfig cfg = sim_config(spec.mini, exp_seed);
  const Pin pin = (spec.mini ? kMiniPins : kFullPins)[exp_seed - 1];
  report.stamp("sim_experiment_seed", std::to_string(exp_seed));
  // One trial: an experiment takes seconds, so it is the runs inside the
  // trial, not trials, that give the medians.
  TrialSet trials(spec, report);

  // Set-up is the overlay build (run_experiment rebuilds it on each call;
  // this times the same random_k_out build on its own). One build takes
  // ~20-30 ms and single builds scatter by a third on a shared host, so
  // the median is taken over many.
  constexpr int kOverlayBuilds = 25;
  for (int i = 0; i < kOverlayBuilds; ++i) {
    trials.build([&] {
      toka::util::Rng rng(exp_seed);
      return toka::net::random_k_out(cfg.node_count, cfg.k_out, rng);
    });
  }

  // One experiment is one request: its wall time is the latency sample,
  // its events are the ops. Warm-up runs whole experiments too.
  struct Window {
    double seconds = 0;
    double events = 0;
    std::vector<double> lat_us;
    WindowFigures figures() const {
      return WindowFigures{seconds > 0 ? events / seconds : 0, lat_us};
    }
  };
  Window base;
  Window traced;
  std::uint64_t runs = 0;
  std::uint64_t events = 0;
  auto run_one = [&](Window* into) {
    const std::int64_t t0 = now_ns();
    const toka::apps::ExperimentResult r = toka::apps::run_experiment(cfg);
    const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    ++runs;
    events = r.sim_counters.events_processed;
    const double final_metric = r.metric.final_value();
    if (events != pin.events ||
        std::fabs(final_metric - pin.final_metric) >
            1e-9 * std::max(1.0, std::fabs(pin.final_metric))) {
      if (report.correct())
        report.fail("sim_push: seed " + std::to_string(exp_seed) + " processed " +
                    std::to_string(events) + " events, final metric " +
                    json_number(final_metric) + "; pinned " +
                    std::to_string(pin.events) + " / " +
                    json_number(pin.final_metric));
    }
    if (into == nullptr) return;
    into->seconds += seconds;
    into->events += static_cast<double>(events);
    into->lat_us.push_back(seconds * 1e6);
  };

  const Timeline timeline(trials.trial_spec(), now_ns());
  while (now_ns() < timeline.warm_end) run_one(nullptr);
  StealProbe steal(now_ns(), timeline.end);
  // At least two measured experiments per window, whatever the host speed.
  while (now_ns() < timeline.split || base.lat_us.size() < 2) run_one(&base);
  if (spec.traced)
    while (now_ns() < timeline.end || traced.lat_us.size() < 2) run_one(&traced);
  report_steal(steal.result(), spec, report);
  report.add_ops(runs, 0);

  trials.add(base.figures(), traced.figures());
  trials.finish();
  if (spec.traced) {
    report.metric("sim.event_ns", 1e9 / traced.figures().throughput, "ns");
    report.metric("sim.events", static_cast<double>(events), "count");
  }
}

}  // namespace perfbench
