// engine: the same 16-op batches as the table rung, through
// ShardEngine::submit_batch on an exclusive-shard table with 2 workers. No
// end-to-end metric moves with it today (the server's default plane is the
// table); it is the rung a one-data-plane decision compares against
// table.batch_ns_per_op. Kept in its own file so it can leave with the
// engine.
#include <atomic>

#include "harness.hpp"
#include "inputs.hpp"
#include "service/shard_engine.hpp"

namespace perfbench {
namespace {

struct EngineCounts {
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> wrong{0};
};

void on_batch_done(toka::service::EngineBatch& batch, void* ctx) {
  auto* counts = static_cast<EngineCounts*>(ctx);
  for (const toka::service::AcquireResult& r : batch.results)
    if (r.granted < 0 || r.granted > 1)
      counts->wrong.fetch_add(1, std::memory_order_relaxed);
  counts->done.fetch_add(1, std::memory_order_release);
}

}  // namespace

void run_engine_rung(std::uint64_t seed, Report& report) {
  constexpr std::size_t kKeys = 1024 * 1024;
  constexpr std::uint64_t kBatches = 1u << 15;
  constexpr std::uint64_t kWindow = 64;
  toka::service::ServiceConfig cfg = service_config();
  cfg.exclusive_shards = true;
  toka::service::AccountTable table(cfg);
  preload(table, key_space(kSaltWireOpen, kKeys));  // before the workers own the shards

  EngineCounts counts;
  std::vector<double> depth;
  depth.reserve(kBatches);
  std::uint64_t submitted = 0;
  std::uint64_t pos = 0;
  std::int64_t elapsed = 0;
  {
    toka::service::ShardEngineOptions options;
    options.workers = 2;
    toka::service::ShardEngine engine(table, options);
    const std::int64_t t0 = now_ns();
    while (submitted < kBatches) {
      if (submitted - counts.done.load(std::memory_order_acquire) >= kWindow) {
        std::this_thread::yield();
        continue;
      }
      if (submitted % 256 == 0) table.clock().advance(cfg.delta_us / 10);
      std::vector<toka::service::AcquireOp> ops(16);
      for (auto& op : ops) op = {uniform_key(kSaltWireOpen, seed, kKeys, pos++), 1};
      depth.push_back(static_cast<double>(engine.queue_depth_max()));
      if (engine.submit_batch(0, std::move(ops), on_batch_done, &counts))
        ++submitted;
    }
    engine.drain();
    elapsed = now_ns() - t0;
  }
  if (counts.done.load() != kBatches)
    report.fail("engine rung: " + std::to_string(kBatches - counts.done.load()) +
                " batches never completed");
  if (counts.wrong.load() != 0)
    report.fail("engine rung: grants larger than the request");
  check_watchdog(table.stats(), "engine rung", report);
  report.metric("engine.batch_ns_per_op",
                static_cast<double>(elapsed) / static_cast<double>(kBatches * 16),
                "ns");
  report.metric("engine.queue_depth_p99", percentile(depth, 0.99).value, "ops");
}

}  // namespace perfbench
