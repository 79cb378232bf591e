#include "harness.hpp"

#include <algorithm>
#include <span>

namespace perfbench {

toka::service::ServiceConfig service_config() {
  toka::service::ServiceConfig cfg;
  cfg.shards = 16;
  cfg.delta_us = 20'000;
  cfg.strategy.kind = toka::core::StrategyKind::kGeneralized;
  cfg.strategy.a_param = 2;
  cfg.strategy.c_param = 8;
  cfg.initial_tokens = 0;
  cfg.idle_ttl_us = 0;
  return cfg;
}

void preload(toka::service::AccountTable& table,
             const std::vector<std::uint64_t>& keys) {
  constexpr std::size_t kChunk = 4096;
  std::vector<toka::service::AcquireOp> ops;
  ops.reserve(kChunk);
  for (std::size_t i = 0; i < keys.size(); i += kChunk) {
    ops.clear();
    const std::size_t n = std::min(kChunk, keys.size() - i);
    for (std::size_t j = 0; j < n; ++j) ops.push_back({keys[i + j], 0});
    table.acquire_batch(std::span<const toka::service::AcquireOp>(ops));
  }
}

void check_watchdog(const toka::service::TableStats& stats, const char* where,
                    Report& report) {
  if (stats.watchdog_violations != 0)
    report.fail(std::string(where) + ": " +
                std::to_string(stats.watchdog_violations) +
                " §3.4 watchdog violations");
  if (stats.watchdog_checks == 0)
    report.fail(std::string(where) + ": the §3.4 watchdog audited nothing");
}

StealProbe::StealProbe(std::int64_t from_ns, std::int64_t to_ns)
    : thread_([this, from_ns, to_ns] {
        sleep_until_ns(from_ns);
        before_ = read_cpu_times();
        sleep_until_ns(to_ns);
        after_ = read_cpu_times();
      }) {}

StealProbe::~StealProbe() {
  if (thread_.joinable()) thread_.join();
}

double StealProbe::result() {
  if (thread_.joinable()) thread_.join();
  return steal_pct(before_, after_);
}

double buffer_percentile(const SampleBuffer& buffer, double q, double scale) {
  return percentile(buffer.values(scale), q).value;
}

double buffer_mean(const SampleBuffer& buffer, double scale) {
  const std::size_t n = buffer.count();
  return n == 0 ? 0
                : static_cast<double>(buffer.sum()) * scale /
                      static_cast<double>(n);
}

void sleep_until_ns(std::int64_t t_ns) {
  std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(t_ns)));
}

Timeline::Timeline(const RunSpec& spec, std::int64_t start)
    : warm_end(start + static_cast<std::int64_t>(spec.warmup * 1e9)),
      split(0),
      end(warm_end + static_cast<std::int64_t>(spec.seconds * 1e9)) {
  split = spec.traced ? warm_end + (end - warm_end) / 2 : end;
}

PhaseLog make_log(const RunSpec& spec, std::int64_t start, std::size_t capacity) {
  const Timeline t(spec, start);
  return PhaseLog(t.warm_end, t.split, t.end, capacity);
}

void report_steal(double steal_pct, const RunSpec& spec, Report& report) {
  report.stamp("bench.steal_pct", json_number(steal_pct));
  if (spec.traced) report.metric("bench.steal_pct", steal_pct, "%");
}

TrialSet::TrialSet(const RunSpec& spec, Report& report)
    : spec_(&spec), report_(&report), trial_(spec),
      count_(spec.traced ? 1 : std::max(spec.setups, 1)) {
  trial_.seconds = spec.seconds / count_;
}

void TrialSet::add(PhaseLog& log) {
  auto figures = [](PhaseLog::Window& w) {
    return WindowFigures{w.throughput(), w.lat_ns.values(1e-3)};
  };
  add(figures(log.base()),
      spec_->traced ? figures(log.traced()) : WindowFigures{});
}

void TrialSet::add(const WindowFigures& base, const WindowFigures& traced) {
  if (spec_->traced) {
    const double base_tp = base.throughput;
    const double base_p50 = percentile(base.lat_us, 0.5).value;
    const double traced_p50 = percentile(traced.lat_us, 0.5).value;
    report_->metric("trace.overhead_pct",
                    base_tp > 0 ? 100.0 * (base_tp - traced.throughput) / base_tp : 0,
                    "%");
    report_->metric("trace.overhead_p50_pct",
                    base_p50 > 0 ? 100.0 * (traced_p50 - base_p50) / base_p50 : 0,
                    "%");
    report_->stamp_tail("lat_us", traced.lat_us);
    return;
  }
  const std::vector<Percentile> tail = tail_percentiles(base.lat_us);
  throughput_.push_back(base.throughput);
  p50_.push_back(tail[0].value);
  p90_.push_back(tail[1].value);
  tails_.push_back(tail_json(tail));
}

void TrialSet::finish() {
  report_->metric("setup_s", median(setup_s_), "s");
  if (spec_->traced) return;
  report_->metric("throughput_ops", median(throughput_), "ops/s");
  report_->metric("lat_p50_us", median(p50_), "us");
  report_->metric("lat_p90_us", median(p90_), "us");
  report_->metric("rss_mb", peak_rss_mb() - rss_base_mb_, "MiB");
  std::string trials = "[";
  for (std::size_t i = 0; i < throughput_.size(); ++i) {
    if (i > 0) trials += ",";
    trials += "{\"throughput_ops\":" + json_number(throughput_[i]) +
              ",\"lat_p50_us\":" + json_number(p50_[i]) +
              ",\"lat_p90_us\":" + json_number(p90_[i]) +
              ",\"lat_us\":" + tails_[i] + "}";
  }
  report_->stamp("trials", trials + "]");
}

}  // namespace perfbench
