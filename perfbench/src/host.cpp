#include "host.hpp"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

namespace perfbench {

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

namespace {

/// This process's thread ids, ascending (creation order).
std::vector<int> thread_ids() {
  std::vector<int> out;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task"))
    out.push_back(std::stoi(entry.path().filename().string()));
  std::sort(out.begin(), out.end());
  return out;
}

void set_affinity(int tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(tid, sizeof(set), &set);
}

}  // namespace

CorePlan::CorePlan() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  if (active()) threads_ = thread_ids();
}

CorePlan::~CorePlan() {
  if (active()) set_affinity(0, cpus_);
}

std::vector<int> CorePlan::new_threads() const {
  std::vector<int> fresh;
  if (!active()) return fresh;
  for (const int tid : thread_ids())
    if (!std::binary_search(threads_.begin(), threads_.end(), tid))
      fresh.push_back(tid);
  return fresh;
}

void CorePlan::pin(int tid, std::size_t core) {
  if (active()) set_affinity(tid, {cpus_[core % cpus_.size()]});
}

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string line;
  CpuTimes out;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return out;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal [guest guest_nice]; the
  // guest fields are already included in user/nice.
  std::uint64_t value = 0;
  for (int i = 0; i < 8 && fields >> value; ++i) {
    out.total += value;
    if (i == 7) out.steal = value;
  }
  return out;
}

double steal_pct(const CpuTimes& before, const CpuTimes& after) {
  const std::uint64_t total = after.total - before.total;
  if (total == 0) return 0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(total);
}

namespace {

/// A "<field>: <n> kB" line of /proc/self/status, in MiB.
double status_mb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      std::istringstream fields(line.substr(field.size()));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double peak_rss_mb() { return status_mb("VmHWM:"); }

double rss_mb() { return status_mb("VmRSS:"); }

std::size_t heap_bytes_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

}  // namespace perfbench
