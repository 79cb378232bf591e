// What one run reports: named metrics with units, the correctness verdict,
// op counts, and the stamp fields (host, commit, tails with their sample
// counts) that go into the report line before the result.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

class Report {
 public:
  /// Sets metric `name` (a later call for the same name replaces it).
  void metric(const std::string& name, double value, const std::string& unit);
  bool has_metric(const std::string& name) const;

  /// Records a failed correctness check. Any failure invalidates the run.
  void fail(const std::string& why);
  bool correct() const { return failures_.empty(); }

  void add_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// Adds a stamp field; `json` is an already-encoded JSON value.
  void stamp(const std::string& key, const std::string& json);
  /// Stamps a latency tail as {"p50":..,"p90":..,"p99":{value,samples,
  /// beyond},"p99.9":{..}} from samples in the metric's unit.
  void stamp_tail(const std::string& key, const std::vector<double>& samples);

  /// One line: {"report": {stamp fields...}}.
  void print_stamp(std::FILE* out) const;

  /// The result line. `names` lists the metrics the run must report; a
  /// run that failed a check, or lacks one of them, reports
  /// {"correct": false, ..., "metrics": {}} and returns false.
  bool print_result(std::FILE* out, const std::vector<std::string>& names);

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::string>> stamps_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// p50, p90, p99 and p99.9 of `samples`, as a latency tail stamp carries.
std::vector<Percentile> tail_percentiles(std::vector<double> samples);
/// {"p50":{"value":..,"samples":..,"beyond":..},..} of tail_percentiles'
/// result.
std::string tail_json(const std::vector<Percentile>& tail);

/// JSON encodings for stamp values.
std::string json_string(const std::string& s);
std::string json_number(double v);

}  // namespace perfbench
