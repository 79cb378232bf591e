#include "inputs.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t InputRng::next() {
  const std::uint64_t out = mix64(state_);
  state_ += 0x9E3779B97F4A7C15ULL;
  return out;
}

std::uint64_t InputRng::below(std::uint64_t n) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(next()) * n) >> 64);
}

ZipfTable::ZipfTable(std::size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t ZipfTable::rank(double u01) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u01);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

std::uint64_t key_of(std::uint64_t salt, std::uint64_t rank) {
  return mix64(rank ^ mix64(salt));
}

std::vector<std::uint64_t> key_space(std::uint64_t salt, std::size_t count) {
  std::vector<std::uint64_t> keys(count);
  for (std::size_t r = 0; r < count; ++r) keys[r] = key_of(salt, r);
  return keys;
}

std::vector<WireOp> wire_open_ops(std::uint64_t salt, std::uint64_t seed,
                                  std::size_t key_count, double zipf_s,
                                  std::size_t count) {
  const ZipfTable zipf(key_count, zipf_s);
  InputRng rng(mix64(seed ^ salt) ^ 0x5eed'0001);
  std::vector<WireOp> ops(count);
  for (WireOp& op : ops) {
    const std::uint64_t mix = rng.below(100);
    op.kind = mix < 90 ? OpKind::kAcquire
                       : (mix < 95 ? OpKind::kRefund : OpKind::kQuery);
    op.key = key_of(salt, zipf.rank(rng.uniform01()));
  }
  return ops;
}

std::vector<std::uint64_t> zipf_keys(std::uint64_t salt, std::uint64_t seed,
                                     std::size_t key_count, double zipf_s,
                                     std::size_t count) {
  const ZipfTable zipf(key_count, zipf_s);
  InputRng rng(mix64(seed ^ salt) ^ 0x5eed'0002);
  std::vector<std::uint64_t> keys(count);
  for (std::uint64_t& key : keys) key = key_of(salt, zipf.rank(rng.uniform01()));
  return keys;
}

std::uint64_t uniform_key(std::uint64_t salt, std::uint64_t seed,
                          std::size_t key_count, std::uint64_t pos) {
  const std::uint64_t draw = mix64(pos ^ mix64(seed ^ salt ^ 0x5eed'0003));
  const auto rank = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(draw) * key_count) >> 64);
  return key_of(salt, rank);
}

}  // namespace perfbench
