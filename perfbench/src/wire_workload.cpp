// wire_open and wire_batch: one service::Server and one service::Client over
// a runtime::EpollMesh loopback pair, built the way examples/tokend.cpp
// builds tokend (default ServerOptions with an obs::Registry, a
// ClockDriver, the default watchdog sampling).
#include <array>
#include <atomic>
#include <memory>
#include <span>

#include "harness.hpp"
#include "inputs.hpp"
#include "obs/telemetry.hpp"
#include "open_loop.hpp"
#include "runtime/epoll.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "timing_transport.hpp"

namespace perfbench {
namespace {

using toka::service::AcquireOp;
using toka::service::AcquireResult;
using toka::service::QueryResult;
using toka::service::RefundResult;

constexpr double kZipf = 0.99;
constexpr std::size_t kBatchOps = 16;
constexpr std::size_t kBatchWindow = 8;

struct WireStack {
  WireStack(const std::vector<std::uint64_t>& keys, std::size_t capacity)
      : table(service_config()),
        mesh(2),
        server_ep(mesh.endpoint(0), capacity),
        client_ep(mesh.endpoint(1), capacity),
        clock(table, 1000) {
    preload(table, keys);
    toka::service::ServerOptions options;
    options.registry = &registry;
    server = std::make_unique<toka::service::Server>(table, server_ep, options);
    clock.start();
    client = std::make_unique<toka::service::Client>(client_ep, 0);
  }

  ~WireStack() {
    client.reset();
    clock.stop();
    server.reset();
  }

  WireStack(const WireStack&) = delete;
  WireStack& operator=(const WireStack&) = delete;

  void set_timing(bool on) {
    server_ep.set_timing(on);
    client_ep.set_timing(on);
  }

  toka::service::AccountTable table;
  toka::obs::Registry registry;
  toka::runtime::EpollMesh mesh;
  TimingTransport server_ep;
  TimingTransport client_ep;
  toka::service::ClockDriver clock;
  std::unique_ptr<toka::service::Server> server;
  std::unique_ptr<toka::service::Client> client;
};

/// Client-side per-layer samples, recorded only in the traced window.
struct ClientSamples {
  explicit ClientSamples(std::size_t capacity)
      : issue_ns(capacity), inflight(capacity) {}
  SampleBuffer issue_ns;
  SampleBuffer inflight;
};

/// Switches the per-layer timing on for the traced window and counts the
/// heap allocations made inside it.
class TracedWindow {
 public:
  explicit TracedWindow(WireStack& stack) : stack_(&stack) {}
  void begin() {
    stack_->set_timing(true);
    set_alloc_counting(true);
    allocs_ = allocations();
    on_.store(true, std::memory_order_relaxed);
  }
  void end() {
    on_.store(false, std::memory_order_relaxed);
    stack_->set_timing(false);
    allocs_ = allocations() - allocs_;
    set_alloc_counting(false);
  }
  bool on() const { return on_.load(std::memory_order_relaxed); }
  std::uint64_t allocations_made() const { return allocs_; }

 private:
  WireStack* stack_;
  std::atomic<bool> on_{false};
  std::uint64_t allocs_ = 0;
};

/// Builds a stack and pins it: the server's event loop, the client's
/// event loop, the stack's other threads (ClockDriver, timeout sweeper)
/// and the calling load thread each get a core. EpollMesh starts one loop
/// per endpoint, server endpoint first, before anything else in the stack.
std::unique_ptr<WireStack> build_stack(TrialSet& trials, const RunSpec& spec,
                                       const std::vector<std::uint64_t>& keys,
                                       CorePlan& cores) {
  const std::size_t capacity = spec.traced ? (std::size_t{1} << 21) : 1;
  auto stack =
      trials.build([&] { return std::make_unique<WireStack>(keys, capacity); });
  const std::vector<int> fresh = cores.new_threads();
  for (std::size_t i = 0; i < fresh.size(); ++i)
    cores.pin(fresh[i], std::min<std::size_t>(i, 2));
  cores.pin(0, 3);
  return stack;
}

/// The live per-layer metrics both wire workloads report.
void report_wire_layers(WireStack& stack, const TracedWindow& window,
                        std::uint64_t traced_ops, double traced_seconds,
                        ClientSamples& samples, Report& report) {
  report.metric("runtime.send_ns", buffer_mean(stack.client_ep.send_ns(), 1),
                "ns");
  const SampleBuffer& handler = stack.server_ep.handler_ns();
  report.metric("server.handler_us_p50", buffer_percentile(handler, 0.5, 1e-3),
                "us");
  report.metric("server.handler_us_p90", buffer_percentile(handler, 0.9, 1e-3),
                "us");
  report.metric("server.busy_frac",
                traced_seconds > 0
                    ? static_cast<double>(handler.sum()) * 1e-9 / traced_seconds
                    : 0,
                "ratio");
  report.metric("server.errored",
                static_cast<double>(stack.server->requests_errored()), "count");
  report.metric("server.shed", static_cast<double>(stack.server->requests_shed()),
                "count");
  report.metric("client.issue_us_p50",
                buffer_percentile(samples.issue_ns, 0.5, 1e-3), "us");
  report.metric("client.recv_us_p50",
                buffer_percentile(stack.client_ep.handler_ns(), 0.5, 1e-3), "us");
  report.metric("client.inflight_p99",
                buffer_percentile(samples.inflight, 0.99, 1), "count");
  report.metric("client.timeouts",
                static_cast<double>(stack.client->timeouts()), "count");
  report.metric("bench.allocs_per_op",
                traced_ops == 0 ? 0
                                : static_cast<double>(window.allocations_made()) /
                                      static_cast<double>(traced_ops),
                "allocs/op");
}

void check_server(WireStack& stack, const char* where, Report& report) {
  const toka::service::TableStats stats = stack.table.stats();
  check_watchdog(stats, where, report);
  if (!report.correct()) return;
  report.metric("table.watchdog_checks",
                static_cast<double>(stats.watchdog_checks), "count");
}

// ------------------------------------------------------------- wire_open

/// Completion bookkeeping of the open loop; requests complete on the
/// client endpoint's event-loop thread.
struct OpenLoopState {
  OpenLoopState(const RunSpec& spec, OpenLoopSchedule s, std::size_t capacity)
      : schedule(s), log(make_log(spec, s.start_ns, capacity)) {}
  OpenLoopSchedule schedule;
  PhaseLog log;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> wrong{0};

  void done(std::uint64_t i, bool valid, const std::exception_ptr& error) {
    const std::int64_t now = now_ns();
    const std::int64_t due = schedule.due(i);
    if (error != nullptr) {
      failed.fetch_add(1, std::memory_order_relaxed);
    } else {
      if (!valid) wrong.fetch_add(1, std::memory_order_relaxed);
      log.record(now, now - due, 1);
    }
    completed.fetch_add(1, std::memory_order_release);
  }
};

}  // namespace

void run_wire_open(const RunSpec& spec, Report& report) {
  const std::size_t key_count = spec.mini ? 64 * 1024 : 1024 * 1024;
  const double rate = spec.mini ? 20'000 : 50'000;
  const std::vector<std::uint64_t> keys = key_space(kSaltWireOpen, key_count);
  TrialSet trials(spec, report);
  const RunSpec& tspec = trials.trial_spec();
  const auto period = static_cast<std::int64_t>(1e9 / rate);
  const auto count =
      static_cast<std::uint64_t>((tspec.warmup + tspec.seconds) * rate);
  // Every trial replays the same stream against a fresh stack.
  const std::vector<WireOp> ops =
      wire_open_ops(kSaltWireOpen, spec.seed, key_count, kZipf, count);
  SampleBuffer late_ns(static_cast<std::size_t>(count) * trials.count());
  std::vector<double> steal;

  for (int t = 0; t < trials.count(); ++t) {
    CorePlan cores;
    std::unique_ptr<WireStack> stack = build_stack(trials, spec, keys, cores);
    toka::service::Client& client = *stack->client;
    const std::int64_t start = now_ns() + 2'000'000;
    auto state = std::make_unique<OpenLoopState>(
        tspec, OpenLoopSchedule{start, period}, static_cast<std::size_t>(count));
    OpenLoopState* st = state.get();
    const std::size_t capacity = spec.traced ? static_cast<std::size_t>(count) : 1;
    ClientSamples samples(capacity);
    TracedWindow window(*stack);
    std::uint64_t traced_issued = 0;
    StealProbe probe(st->log.warm_end(), st->log.end());

    drive_open_loop(
        st->schedule, count,
        [](std::int64_t due) { return spin_until(due, now_ns); },
        [&](std::uint64_t i, std::int64_t due, std::int64_t late) {
          if (due >= st->log.warm_end()) late_ns.record(late);
          if (spec.traced && !window.on() && due >= st->log.split())
            window.begin();
          const bool timed = window.on();
          const std::int64_t t0 = timed ? now_ns() : 0;
          const WireOp& op = ops[i];
          switch (op.kind) {
            case OpKind::kAcquire:
              client.acquire_async(
                  0, op.key, 1, [st, i](AcquireResult r, std::exception_ptr e) {
                    st->done(i, r.granted >= 0 && r.granted <= 1, e);
                  });
              break;
            case OpKind::kRefund:
              client.refund_async(
                  0, op.key, 1, [st, i](RefundResult r, std::exception_ptr e) {
                    st->done(i, r.accepted >= 0 && r.accepted <= 1, e);
                  });
              break;
            case OpKind::kQuery:
              client.query_async(0, op.key,
                                 [st, i](QueryResult r, std::exception_ptr e) {
                                   st->done(i, r.exists && r.balance >= 0, e);
                                 });
              break;
          }
          if (timed) {
            samples.issue_ns.record(now_ns() - t0);
            samples.inflight.record(static_cast<std::int64_t>(
                i + 1 - st->completed.load(std::memory_order_relaxed)));
            ++traced_issued;
          }
        });

    const bool drained = wait_for(
        [&] { return st->completed.load(std::memory_order_acquire) == count; }, 10);
    if (window.on()) window.end();
    steal.push_back(probe.result());
    if (!drained)
      report.fail("wire_open: " + std::to_string(count - st->completed.load()) +
                  " requests never completed");
    if (st->wrong.load() != 0)
      report.fail("wire_open: " + std::to_string(st->wrong.load()) +
                  " responses granted or refunded more than requested, or "
                  "lost a preloaded account");
    if (st->failed.load() != 0)
      report.fail("wire_open: " + std::to_string(st->failed.load()) +
                  " requests failed (typed error, shed or timeout)");
    report.add_ops(count, st->failed.load());
    check_server(*stack, "wire_open", report);
    if (spec.traced)
      report_wire_layers(*stack, window, traced_issued, st->log.traced().seconds,
                         samples, report);
    // The client rejects whatever is still in flight as it goes, and those
    // completions touch `state`: tear the stack down first.
    stack.reset();
    trials.add(st->log);
  }
  trials.finish();

  const std::vector<double> late_us = late_ns.values(1e-3);
  report.stamp_tail("gen_late_us", late_us);
  report_steal(median(steal), spec, report);
  if (spec.traced) {
    const auto ps = percentiles(late_us, {0.9, 1.0});
    report.metric("bench.gen_late_p90_us", ps[0].value, "us");
    report.metric("bench.gen_late_max_us", ps[1].value, "us");
  }
}

// ------------------------------------------------------------ wire_batch

namespace {

/// Closed loop: kBatchWindow chains, each keeping one 16-op BatchAcquire
/// frame in flight and re-issuing from its completion (on the client's
/// event-loop thread) until the end of the run.
struct BatchLoop {
  BatchLoop(toka::service::Client& c, std::uint64_t s, std::size_t k,
            const RunSpec& spec, std::int64_t start, SampleBuffer& issue)
      : client(&c),
        seed(s),
        key_count(k),
        log(make_log(spec, start, std::size_t{1} << 21)),
        issue_ns(&issue) {}

  toka::service::Client* client;
  std::uint64_t seed;
  std::size_t key_count;
  PhaseLog log;
  SampleBuffer* issue_ns;
  const TracedWindow* window = nullptr;
  std::atomic<std::uint64_t> position{0};
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> inflight{0};
  std::atomic<int> live{0};

  void issue() {
    std::array<AcquireOp, kBatchOps> ops;
    const std::uint64_t base = position.fetch_add(kBatchOps, std::memory_order_relaxed);
    for (std::size_t j = 0; j < kBatchOps; ++j)
      ops[j] = AcquireOp{uniform_key(kSaltWireBatch, seed, key_count, base + j), 1};
    attempted.fetch_add(kBatchOps, std::memory_order_relaxed);
    inflight.fetch_add(1, std::memory_order_relaxed);
    const bool timed = window != nullptr && window->on();
    const std::int64_t t0 = now_ns();
    client->acquire_batch_async(
        0, std::span<const AcquireOp>(ops),
        [this, t0](std::vector<AcquireResult> results, std::exception_ptr e) {
          done(t0, results, e);
        });
    if (timed) issue_ns->record(now_ns() - t0);
  }

  void done(std::int64_t t0, const std::vector<AcquireResult>& results,
            const std::exception_ptr& error) {
    const std::int64_t now = now_ns();
    inflight.fetch_sub(1, std::memory_order_relaxed);
    if (error != nullptr) {
      failed.fetch_add(kBatchOps, std::memory_order_relaxed);
      live.fetch_sub(1, std::memory_order_release);
      return;
    }
    bool valid = results.size() == kBatchOps;
    for (const AcquireResult& r : results)
      valid = valid && r.granted >= 0 && r.granted <= 1;
    if (!valid) wrong.fetch_add(1, std::memory_order_relaxed);
    log.record(now, now - t0, kBatchOps);
    if (now < log.end()) {
      issue();
    } else {
      live.fetch_sub(1, std::memory_order_release);
    }
  }
};

}  // namespace

void run_wire_batch(const RunSpec& spec, Report& report) {
  const std::size_t key_count = spec.mini ? 256 * 1024 : 4 * 1024 * 1024;
  const std::vector<std::uint64_t> keys = key_space(kSaltWireBatch, key_count);
  TrialSet trials(spec, report);
  std::vector<double> steal;

  for (int t = 0; t < trials.count(); ++t) {
    CorePlan cores;
    std::unique_ptr<WireStack> stack = build_stack(trials, spec, keys, cores);
    ClientSamples samples(spec.traced ? (std::size_t{1} << 21) : 1);
    TracedWindow window(*stack);
    const std::int64_t start = now_ns() + 2'000'000;
    // Every trial replays the same stream (positions restart at 0).
    auto loop = std::make_unique<BatchLoop>(*stack->client, spec.seed, key_count,
                                           trials.trial_spec(), start,
                                           samples.issue_ns);
    if (spec.traced) loop->window = &window;
    StealProbe probe(loop->log.warm_end(), loop->log.end());

    sleep_until_ns(start);
    loop->live.store(static_cast<int>(kBatchWindow));
    for (std::size_t c = 0; c < kBatchWindow; ++c) loop->issue();
    std::uint64_t traced_ops_start = 0;
    if (spec.traced) {
      sleep_until_ns(loop->log.split());
      traced_ops_start = loop->attempted.load();
      window.begin();
      // The window is 8 frames deep by construction; sample it anyway so
      // the metric reads what the client saw.
      while (now_ns() < loop->log.end()) {
        samples.inflight.record(static_cast<std::int64_t>(
            loop->inflight.load(std::memory_order_relaxed)));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    sleep_until_ns(loop->log.end());
    const bool drained = wait_for(
        [&] { return loop->live.load(std::memory_order_acquire) == 0; }, 10);
    const std::uint64_t traced_ops = loop->attempted.load() - traced_ops_start;
    if (window.on()) window.end();
    steal.push_back(probe.result());
    if (!drained)
      report.fail("wire_batch: " + std::to_string(loop->live.load()) +
                  " batch frames never completed");
    if (loop->wrong.load() != 0)
      report.fail("wire_batch: " + std::to_string(loop->wrong.load()) +
                  " batch responses granted more than requested");
    if (loop->failed.load() != 0)
      report.fail("wire_batch: " + std::to_string(loop->failed.load() / kBatchOps) +
                  " batch frames failed (typed error, shed or timeout)");
    report.add_ops(loop->attempted.load(), loop->failed.load());
    check_server(*stack, "wire_batch", report);
    if (spec.traced)
      report_wire_layers(*stack, window, traced_ops, loop->log.traced().seconds,
                         samples, report);
    // The client rejects whatever is still in flight as it goes, and those
    // completions touch `loop`: tear the stack down first.
    stack.reset();
    trials.add(loop->log);
  }
  trials.finish();
  report_steal(median(steal), spec, report);
}

}  // namespace perfbench
