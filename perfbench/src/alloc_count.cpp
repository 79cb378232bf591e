// Process-wide heap allocation counting: replaces the global operator new
// and operator new[] (and their matching deletes) for the whole benchmark
// binary, library code included. The aligned and nothrow forms keep their
// default implementations (libstdc++ routes nothrow new through the
// throwing form, so those allocations are counted too).
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "host.hpp"

namespace {

// Per-thread counters on their own cache lines: a shared atomic would
// bounce between the event-loop threads on every allocation and cost the
// traced run more than the allocations themselves. Slots are claimed once
// per thread and never released (threads past the last slot share it).
constexpr int kSlots = 512;
struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
};
Slot g_slots[kSlots];
std::atomic<int> g_next_slot{0};
thread_local int t_slot = -1;
std::atomic<bool> g_counting{false};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    if (t_slot < 0)
      t_slot = std::min(g_next_slot.fetch_add(1, std::memory_order_relaxed),
                        kSlots - 1);
    g_slots[t_slot].count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace perfbench {

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t allocations() {
  std::uint64_t total = 0;
  for (const Slot& slot : g_slots)
    total += slot.count.load(std::memory_order_relaxed);
  return total;
}

}  // namespace perfbench

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
