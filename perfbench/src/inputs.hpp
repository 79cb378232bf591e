// Workload inputs, generated from the run's seed alone.
//
// The benchmark draws every key, op mix and batch with its own generators
// (not the library's util::Rng / util::ZipfSampler), so a change to the
// program under test can never change the inputs it is measured on.
//
// A workload's key space is fixed by its salt: rank r is always the same
// key, so which shard, ring node or cache line the hottest ranks land on
// does not change from seed to seed. The seed draws the request sequence
// (which ranks, in which order, with which op), so two seeds give two
// different inputs with the same shape.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// splitmix64 finalizer: a bijective 64-bit mix.
std::uint64_t mix64(std::uint64_t x);

/// Small seeded generator (splitmix64 stream).
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform01() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n > 0. Multiply-shift, bias below 2^-32 for n < 2^32.
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks [0, n): P(rank k) proportional to 1/(k+1)^s, sampled
/// by inverting a precomputed CDF (O(n) setup, O(log n) per draw).
class ZipfTable {
 public:
  ZipfTable(std::size_t n, double s);
  std::size_t rank(double u01) const;

 private:
  std::vector<double> cdf_;
};

/// The account key for `rank` in the key space named by `salt`: a bijection
/// of the rank, so hot ranks land on unrelated shards and ring points.
std::uint64_t key_of(std::uint64_t salt, std::uint64_t rank);

/// Every key of a `count`-key space, in rank order (the preload list).
std::vector<std::uint64_t> key_space(std::uint64_t salt, std::size_t count);

enum class OpKind : std::uint8_t { kAcquire, kRefund, kQuery };

struct WireOp {
  OpKind kind = OpKind::kAcquire;
  std::uint64_t key = 0;
};

/// wire_open's request stream: 90% acquire(1), 5% refund(1), 5% query, on
/// Zipf(s) over a `key_count`-key space.
std::vector<WireOp> wire_open_ops(std::uint64_t salt, std::uint64_t seed,
                                  std::size_t key_count, double zipf_s,
                                  std::size_t count);

/// Zipf(s) key stream over a `key_count`-key space (cluster_repl).
std::vector<std::uint64_t> zipf_keys(std::uint64_t salt, std::uint64_t seed,
                                     std::size_t key_count, double zipf_s,
                                     std::size_t count);

/// The `pos`-th key of a uniform stream over a `key_count`-key space
/// (wire_batch): counter-based, so any thread can draw position `pos`
/// without sharing generator state.
std::uint64_t uniform_key(std::uint64_t salt, std::uint64_t seed,
                          std::size_t key_count, std::uint64_t pos);

/// Per-workload key-space salts.
inline constexpr std::uint64_t kSaltWireOpen = 0x0be1'0001;
inline constexpr std::uint64_t kSaltWireBatch = 0x0be1'0002;
/// cluster_repl's salt is the one of 0x0be1'0003..0x0be1'002a whose
/// Zipf(0.99) load the 3-node ring splits most evenly (shares 0.30 / 0.35 /
/// 0.35).
/// With an uneven split (0x0be1'0003 gives 0.32 / 0.43 / 0.25) the closed
/// loop's queue sits on the hottest node's lane, latency turns bimodal and
/// p50 lands on the cliff between the modes: it swung 56-84 us between
/// trials of one run. An even split keeps the workload about the cluster
/// path rather than about which node drew the hottest keys.
///
/// The choice is tied to the ring's current placement (hashing, vnodes):
/// a change there redraws the split. Every cluster_repl run stamps the
/// split it drew and whether it left kClusterSplit by more than
/// kClusterSplitTolerance, so such a run is labelled rather than read as
/// a change in the cluster path.
inline constexpr std::uint64_t kSaltCluster = 0x0be1'0018;
/// Share of cluster_repl's requests owned by nodes 0, 1 and 2.
inline constexpr double kClusterSplit[3] = {0.30, 0.35, 0.35};
inline constexpr double kClusterSplitTolerance = 0.02;
inline constexpr std::uint64_t kSaltSim = 0x0be1'0004;

}  // namespace perfbench
