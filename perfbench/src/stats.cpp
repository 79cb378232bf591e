#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::vector<Percentile> percentiles(std::vector<double> samples,
                                    const std::vector<double>& qs) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  std::vector<Percentile> out;
  out.reserve(qs.size());
  for (const double q : qs) {
    Percentile p;
    p.q = q;
    p.samples = n;
    if (n > 0) {
      const auto rank = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(n)));
      const std::size_t idx = std::clamp<std::size_t>(rank, 1, n) - 1;
      p.value = samples[idx];
      p.beyond = static_cast<std::size_t>(
          samples.end() -
          std::upper_bound(samples.begin(), samples.end(), p.value));
    }
    out.push_back(p);
  }
  return out;
}

Percentile percentile(std::vector<double> samples, double q) {
  return percentiles(std::move(samples), {q}).front();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace perfbench
