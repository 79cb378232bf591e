// Order statistics for the benchmark's reports.
//
// Every percentile travels with the number of samples it was taken from and
// the number of samples above it, so a reader can tell a p99 backed by
// thousands of tail samples from one backed by a handful (the tail is only
// trustworthy with at least ten samples beyond it).
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

struct Percentile {
  double q = 0;               ///< in (0, 1]
  double value = 0;           ///< nearest-rank percentile (0 with no samples)
  std::size_t samples = 0;    ///< size of the sample set
  std::size_t beyond = 0;     ///< samples strictly greater than `value`
};

/// Nearest-rank percentiles of `samples` for each q in `qs`. Sorts a copy.
std::vector<Percentile> percentiles(std::vector<double> samples,
                                    const std::vector<double>& qs);

/// Single nearest-rank percentile (0 for an empty set).
Percentile percentile(std::vector<double> samples, double q);

/// Median of `values` (0 for an empty set); averages the middle pair.
double median(std::vector<double> values);

}  // namespace perfbench
