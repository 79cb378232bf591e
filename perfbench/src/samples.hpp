// Lock-free sample stores for latencies recorded on library threads.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <vector>

#include <sys/mman.h>

namespace perfbench {

/// Fixed-capacity sample store: any thread may record, samples past the
/// capacity are counted but dropped. Read once the recording threads are
/// quiet (detached handlers, joined threads). The storage is an anonymous
/// mapping, so a page becomes resident only once a sample lands on it: a
/// buffer sized for the fastest trial costs a slower one no memory it
/// does not use, and rss_mb carries 4 bytes per recorded sample.
class SampleBuffer {
 public:
  explicit SampleBuffer(std::size_t capacity)
      : capacity_(std::max<std::size_t>(capacity, 1)),
        bytes_(capacity_ * sizeof(std::uint32_t)),
        samples_(static_cast<std::uint32_t*>(
            ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0))) {
    if (samples_ == MAP_FAILED) throw std::bad_alloc();
  }
  ~SampleBuffer() { ::munmap(samples_, bytes_); }
  SampleBuffer(const SampleBuffer&) = delete;
  SampleBuffer& operator=(const SampleBuffer&) = delete;

  void record(std::int64_t value) {
    const std::size_t i = count_.fetch_add(1, std::memory_order_relaxed);
    const auto v = static_cast<std::uint32_t>(
        value < 0 ? 0 : (value > 0xFFFFFFFFLL ? 0xFFFFFFFFLL : value));
    sum_.fetch_add(v, std::memory_order_relaxed);
    if (i < capacity_)
      std::atomic_ref<std::uint32_t>(samples_[i]).store(v, std::memory_order_relaxed);
  }

  /// Samples offered so far (including dropped ones).
  std::size_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Sum of every offered sample.
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// The stored samples, scaled by `scale` (e.g. 1e-3 for ns -> us).
  std::vector<double> values(double scale = 1.0) const {
    const std::size_t n = std::min(count(), capacity_);
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i)
      out[i] = std::atomic_ref<std::uint32_t>(samples_[i]).load(
                   std::memory_order_relaxed) *
               scale;
    return out;
  }

 private:
  std::size_t capacity_;
  std::size_t bytes_;
  std::uint32_t* samples_;
  std::atomic<std::size_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// The timed part of a run, split into two windows by completion time: `base` = [warm_end, split) and `traced` = [split, end). Untraced
/// runs set split = end, so everything lands in `base`; traced runs measure
/// `base` with timing off and `traced` with it on, which prices the timing.
/// Anything before warm_end is warm-up and is dropped.
class PhaseLog {
 public:
  struct Window {
    explicit Window(std::size_t capacity) : lat_ns(capacity) {}
    SampleBuffer lat_ns;                 ///< per request (or frame)
    std::atomic<std::uint64_t> ops{0};   ///< ops completed (a batch counts all)
    double seconds = 0;                  ///< the window's length
    /// First and last completion inside the window.
    std::atomic<std::int64_t> first_ns{std::numeric_limits<std::int64_t>::max()};
    std::atomic<std::int64_t> last_ns{std::numeric_limits<std::int64_t>::min()};

    /// Ops per second over the span the completions actually covered (for
    /// an open loop, the achieved rather than the scheduled rate).
    double throughput() const {
      const std::int64_t span = last_ns.load() - first_ns.load();
      return span > 0 ? static_cast<double>(ops.load()) * 1e9 /
                            static_cast<double>(span)
                      : 0;
    }
  };

  PhaseLog(std::int64_t warm_end, std::int64_t split, std::int64_t end,
           std::size_t capacity)
      : warm_end_(warm_end), split_(split), end_(end),
        base_(split > warm_end ? capacity : 1),
        traced_(end > split ? capacity : 1) {
    base_.seconds = static_cast<double>(split - warm_end) * 1e-9;
    traced_.seconds = static_cast<double>(end - split) * 1e-9;
  }

  /// Files one completion stamped `at_ns` that took `lat_ns` for `ops` ops.
  void record(std::int64_t at_ns, std::int64_t lat_ns, std::uint64_t ops) {
    if (at_ns < warm_end_ || at_ns >= end_) return;
    Window& w = at_ns < split_ ? base_ : traced_;
    w.lat_ns.record(lat_ns);
    w.ops.fetch_add(ops, std::memory_order_relaxed);
    std::int64_t first = w.first_ns.load(std::memory_order_relaxed);
    while (at_ns < first &&
           !w.first_ns.compare_exchange_weak(first, at_ns, std::memory_order_relaxed)) {
    }
    std::int64_t last = w.last_ns.load(std::memory_order_relaxed);
    while (at_ns > last &&
           !w.last_ns.compare_exchange_weak(last, at_ns, std::memory_order_relaxed)) {
    }
  }

  std::int64_t warm_end() const { return warm_end_; }
  std::int64_t split() const { return split_; }
  std::int64_t end() const { return end_; }
  Window& base() { return base_; }
  Window& traced() { return traced_; }

 private:
  std::int64_t warm_end_;
  std::int64_t split_;
  std::int64_t end_;
  Window base_;
  Window traced_;
};

}  // namespace perfbench
