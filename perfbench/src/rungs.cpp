// The isolated rungs: one layer each, driven through its public functions
// with the inputs a workload generates from the run's seed. They run in
// every traced run, at fixed sizes, so the same rung reads the same way
// whichever workload is traced.
#include <atomic>
#include <span>
#include <thread>
#include <variant>

#include "cluster/cluster_map.hpp"
#include "cluster/hash_ring.hpp"
#include "core/account.hpp"
#include "core/strategy.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "net/graph.hpp"
#include "net/online_peer_view.hpp"
#include "runtime/epoll.hpp"
#include "runtime/inproc.hpp"
#include "service/protocol.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace protocol = toka::service::protocol;
using toka::service::AcquireOp;
using toka::service::AcquireResult;

constexpr std::size_t kRungKeys = 1024 * 1024;
constexpr double kZipf = 0.99;

/// Keeps a computed value alive so the timed loop cannot be elided.
std::atomic<std::uint64_t> g_sink{0};

double ns_per(std::int64_t elapsed_ns, std::uint64_t ops) {
  return ops == 0 ? 0
                  : static_cast<double>(elapsed_ns) / static_cast<double>(ops);
}

/// table: preload, single acquires on the wire_open stream, 16-op batches
/// in wire_batch's shape, all on a 1M-account locked-plane table. The clock
/// advances Δ/10 every 4096 ops so accounts earn tokens (and the watchdog
/// audits grants) the way they do under the ClockDriver.
void rung_table(std::uint64_t seed, Report& report) {
  const std::vector<std::uint64_t> keys = key_space(kSaltWireOpen, kRungKeys);
  const std::vector<WireOp> ops =
      wire_open_ops(kSaltWireOpen, seed, kRungKeys, kZipf, 1u << 19);
  const toka::service::ServiceConfig cfg = service_config();
  const toka::TimeUs tick = cfg.delta_us / 10;

  const std::size_t heap0 = heap_bytes_in_use();
  std::int64_t t0 = now_ns();
  toka::service::AccountTable table(cfg);
  preload(table, keys);
  const double preload_s = static_cast<double>(now_ns() - t0) * 1e-9;
  const double bytes = static_cast<double>(heap_bytes_in_use() - heap0);
  report.metric("table.preload_s", preload_s, "s");
  report.metric("table.bytes_per_account", bytes / kRungKeys, "B");

  std::uint64_t granted = 0;
  t0 = now_ns();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i % 4096 == 0) table.clock().advance(tick);
    granted += static_cast<std::uint64_t>(table.acquire(0, ops[i].key, 1).granted);
  }
  report.metric("table.acquire_ns", ns_per(now_ns() - t0, ops.size()), "ns");

  constexpr std::size_t kBatches = 1u << 15;
  std::vector<AcquireOp> batch(16);
  std::uint64_t pos = 0;
  t0 = now_ns();
  for (std::size_t b = 0; b < kBatches; ++b) {
    if (b % 256 == 0) table.clock().advance(tick);
    for (AcquireOp& op : batch)
      op = AcquireOp{uniform_key(kSaltWireOpen, seed, kRungKeys, pos++), 1};
    for (const AcquireResult& r :
         table.acquire_batch(0, std::span<const AcquireOp>(batch)))
      granted += static_cast<std::uint64_t>(r.granted);
  }
  report.metric("table.batch_ns_per_op", ns_per(now_ns() - t0, kBatches * 16),
                "ns");
  g_sink += granted;

  const toka::service::TableStats stats = table.stats();
  if (stats.tokens_granted > stats.tokens_requested)
    report.fail("table rung: granted more tokens than requested");
  check_watchdog(stats, "table rung", report);
  report.metric("table.watchdog_checks", static_cast<double>(stats.watchdog_checks),
                "count");
}

/// core: TokenAccount::on_tick + try_spend, replayed over 64k accounts in
/// wire_batch's uniform order, with the service's strategy.
void rung_core(std::uint64_t seed, Report& report) {
  const auto strategy = toka::core::make_strategy(service_config().strategy);
  constexpr std::size_t kAccounts = 1u << 16;
  constexpr std::size_t kOps = 1u << 21;
  std::vector<toka::core::TokenAccount> accounts;
  accounts.reserve(kAccounts);
  for (std::size_t i = 0; i < kAccounts; ++i) accounts.emplace_back(*strategy);
  std::vector<std::uint32_t> order(kOps);
  InputRng rng(mix64(seed ^ kSaltWireBatch));
  for (std::uint32_t& o : order) o = static_cast<std::uint32_t>(rng.below(kAccounts));

  toka::util::Rng tick_rng(seed);
  std::int64_t spent = 0;
  const std::int64_t t0 = now_ns();
  for (const std::uint32_t i : order) {
    accounts[i].on_tick(tick_rng);
    spent += accounts[i].try_spend(1);
  }
  report.metric("core.settle_ns", ns_per(now_ns() - t0, kOps), "ns");
  g_sink += static_cast<std::uint64_t>(spent);
}

/// protocol: encode and decode of one request plus its response, for a
/// single acquire and for a 16-op batch, on wire_open / wire_batch keys.
void rung_protocol(std::uint64_t seed, Report& report) {
  constexpr std::size_t kFrames = 4096;
  const std::vector<WireOp> ops =
      wire_open_ops(kSaltWireOpen, seed, kRungKeys, kZipf, kFrames);
  std::vector<protocol::AcquireRequest> reqs(kFrames);
  std::vector<protocol::AcquireResponse> resps(kFrames);
  std::vector<protocol::BatchAcquireRequest> breqs(kFrames);
  std::vector<protocol::BatchAcquireResponse> bresps(kFrames);
  std::uint64_t pos = 0;
  for (std::size_t i = 0; i < kFrames; ++i) {
    reqs[i] = protocol::AcquireRequest{i + 1, ops[i].key, 1, 0};
    resps[i] = protocol::AcquireResponse{i + 1, static_cast<toka::Tokens>(i % 2),
                                         static_cast<toka::Tokens>(i % 9)};
    breqs[i].id = i + 1;
    bresps[i].id = i + 1;
    for (int j = 0; j < 16; ++j) {
      breqs[i].ops.push_back(
          AcquireOp{uniform_key(kSaltWireBatch, seed, kRungKeys, pos++), 1});
      bresps[i].results.push_back(AcquireResult{static_cast<toka::Tokens>(j % 2),
                                                static_cast<toka::Tokens>(j % 9)});
    }
  }

  // Encode and decode in separate timed loops, over the same frames.
  auto time_pair = [&](auto&& encode_one, auto&& decode_one, std::size_t iters,
                       const char* encode_name, const char* decode_name) {
    std::vector<std::vector<std::byte>> req_frames(kFrames);
    std::vector<std::vector<std::byte>> resp_frames(kFrames);
    std::uint64_t bytes = 0;
    std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < iters; ++i) {
      auto [req, resp] = encode_one(i % kFrames);
      bytes += req.size() + resp.size();
      if (i < kFrames) {
        req_frames[i] = std::move(req);
        resp_frames[i] = std::move(resp);
      }
    }
    report.metric(encode_name, ns_per(now_ns() - t0, iters), "ns");
    bool same = true;
    t0 = now_ns();
    for (std::size_t i = 0; i < iters; ++i)
      same = decode_one(i % kFrames, req_frames[i % kFrames],
                        resp_frames[i % kFrames]) && same;
    report.metric(decode_name, ns_per(now_ns() - t0, iters), "ns");
    if (!same) report.fail(std::string(decode_name) + ": a frame decoded differently");
    g_sink += bytes;
  };

  time_pair(
      [&](std::size_t i) {
        return std::pair(protocol::encode(reqs[i]), protocol::encode(resps[i]));
      },
      [&](std::size_t i, const std::vector<std::byte>& req,
          const std::vector<std::byte>& resp) {
        const protocol::Request r = protocol::decode_request(req);
        const protocol::Response p = protocol::decode_response(resp);
        const auto* rq = std::get_if<protocol::AcquireRequest>(&r);
        const auto* rp = std::get_if<protocol::AcquireResponse>(&p);
        return rq != nullptr && rp != nullptr && *rq == reqs[i] && *rp == resps[i];
      },
      1u << 18, "protocol.encode_ns.acquire", "protocol.decode_ns.acquire");
  time_pair(
      [&](std::size_t i) {
        return std::pair(protocol::encode(breqs[i]), protocol::encode(bresps[i]));
      },
      [&](std::size_t i, const std::vector<std::byte>& req,
          const std::vector<std::byte>& resp) {
        const protocol::Request r = protocol::decode_request(req);
        const protocol::Response p = protocol::decode_response(resp);
        const auto* rq = std::get_if<protocol::BatchAcquireRequest>(&r);
        const auto* rp = std::get_if<protocol::BatchAcquireResponse>(&p);
        return rq != nullptr && rp != nullptr && *rq == breqs[i] &&
               *rp == bresps[i];
      },
      1u << 16, "protocol.encode_ns.batch16", "protocol.decode_ns.batch16");

  // Heap allocations of one single-acquire round trip through the codec.
  constexpr std::size_t kRoundTrips = 1000;
  set_alloc_counting(true);
  const std::uint64_t a0 = allocations();
  for (std::size_t i = 0; i < kRoundTrips; ++i) {
    const auto req = protocol::encode(reqs[i]);
    const protocol::Request r = protocol::decode_request(req);
    const auto resp = protocol::encode(resps[i]);
    const protocol::Response p = protocol::decode_response(resp);
    g_sink += req.size() + resp.size() + r.index() + p.index();
  }
  const std::uint64_t allocs = allocations() - a0;
  set_alloc_counting(false);
  report.metric("protocol.allocs_per_roundtrip",
                static_cast<double>(allocs) / kRoundTrips, "count");
}

/// A bare echo over `client` -> `server` endpoints with one frame in flight,
/// at wire_open's request frame size; the p50 round trip in us.
double echo_rtt_p50_us(toka::runtime::Transport& server,
                       toka::runtime::Transport& client, Report& report,
                       const char* what) {
  std::atomic<std::uint64_t> echoed{0};
  server.set_handler([&server](toka::NodeId from, std::vector<std::byte> p) {
    server.send(from, std::move(p));
  });
  client.set_handler([&echoed](toka::NodeId, std::vector<std::byte>) {
    echoed.fetch_add(1, std::memory_order_release);
  });
  const std::vector<std::byte> frame =
      protocol::encode(protocol::AcquireRequest{1, mix64(7), 1, 0});
  constexpr std::uint64_t kWarm = 500;
  constexpr std::uint64_t kTrips = 5000;
  std::vector<double> rtt_us;
  rtt_us.reserve(kTrips);
  for (std::uint64_t i = 0; i < kWarm + kTrips; ++i) {
    const std::int64_t t0 = now_ns();
    client.send(server.self(), frame);
    std::int64_t now = t0;
    while (echoed.load(std::memory_order_acquire) <= i) {
      now = now_ns();
      if (now - t0 > 1'000'000'000) break;
    }
    if (echoed.load(std::memory_order_acquire) <= i) {
      report.fail(std::string(what) + ": an echo never came back");
      break;
    }
    if (i >= kWarm) rtt_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  client.set_handler({});
  server.set_handler({});
  return percentile(rtt_us, 0.5).value;
}

void rung_runtime(Report& report) {
  {
    toka::runtime::EpollMesh mesh(2);
    report.metric("runtime.echo_rtt_us_p50",
                  echo_rtt_p50_us(mesh.endpoint(0), mesh.endpoint(1), report,
                                  "epoll echo rung"),
                  "us");
  }
  toka::runtime::InProcNetwork net(2, /*latency_us=*/0, /*dispatchers=*/2);
  net.start();
  report.metric("runtime.inproc_rtt_us_p50",
                echo_rtt_p50_us(net.endpoint(0), net.endpoint(1), report,
                                "inproc echo rung"),
                "us");
  net.stop();
}

/// cluster: HashRing::owner on cluster_repl's key stream, 3 nodes.
void rung_route(std::uint64_t seed, Report& report) {
  const std::vector<std::uint64_t> keys =
      zipf_keys(kSaltCluster, seed, kRungKeys, kZipf, 1u << 20);
  const toka::cluster::HashRing ring(toka::cluster::ClusterMap{
      1, toka::cluster::kDefaultVnodes, {0, 1, 2}, 1});
  std::uint64_t sum = 0;
  const std::int64_t t0 = now_ns();
  for (const std::uint64_t key : keys) sum += ring.owner(0, key);
  report.metric("cluster.route_ns", ns_per(now_ns() - t0, keys.size()), "ns");
  g_sink += sum;
}

/// sim / net: sim_push's overlay build, peer selection on it, and the
/// event queue under the experiment's mix of period ticks and transfers.
void rung_sim(std::uint64_t seed, Report& report) {
  constexpr std::size_t kNodesN = 50'000;
  constexpr std::size_t kOutDegree = 20;
  toka::util::Rng graph_rng(seed ^ kSaltSim);
  std::int64_t t0 = now_ns();
  const toka::net::Digraph graph =
      toka::net::random_k_out(kNodesN, kOutDegree, graph_rng);
  report.metric("sim.graph_build_s", static_cast<double>(now_ns() - t0) * 1e-9, "s");

  const toka::net::OnlinePeerView view(graph, {}, false);
  constexpr std::size_t kPicks = 1u << 21;
  std::vector<toka::NodeId> from(kPicks);
  InputRng rng(mix64(seed ^ kSaltSim));
  for (toka::NodeId& f : from) f = static_cast<toka::NodeId>(rng.below(kNodesN));
  toka::util::Rng pick_rng(seed);
  std::uint64_t sum = 0;
  t0 = now_ns();
  for (const toka::NodeId f : from) sum += view.pick(f, pick_rng);
  report.metric("net.select_peer_ns", ns_per(now_ns() - t0, kPicks), "ns");

  // One tick per node per Δ with a random phase; each tick sends a message
  // half the time and each message triggers another a quarter of the time,
  // both arriving one transfer time later (the paper's Δ and transfer).
  struct Event {
    toka::TimeUs at = 0;
    std::uint64_t seq = 0;
    toka::NodeId node = 0;
  };
  constexpr toka::TimeUs kDelta = 172'800'000;
  constexpr toka::TimeUs kTransfer = 1'728'000;
  constexpr std::size_t kSteps = 1u << 21;
  toka::sim::EventQueue<Event> queue;
  std::uint64_t seq = 0;
  for (toka::NodeId v = 0; v < kNodesN; ++v)
    queue.push_tick(toka::sim::TickEntry{
        static_cast<toka::TimeUs>(rng.below(kDelta)), seq++, v, 0});
  std::vector<std::uint8_t> coins(kSteps);
  for (std::uint8_t& c : coins) c = static_cast<std::uint8_t>(rng.below(4));
  t0 = now_ns();
  for (std::size_t i = 0; i < kSteps; ++i) {
    if (queue.next_is_tick()) {
      const toka::sim::TickEntry t = queue.pop_tick();
      queue.push_tick(toka::sim::TickEntry{t.at + kDelta, seq++, t.node, 0});
      if (coins[i] < 2) queue.push(Event{t.at + kTransfer, seq++, t.node});
    } else {
      const Event e = queue.pop();
      if (coins[i] == 0) queue.push(Event{e.at + kTransfer, seq++, e.node});
    }
  }
  report.metric("sim.queue_ns", ns_per(now_ns() - t0, kSteps), "ns");
  g_sink += sum + queue.size();
}

}  // namespace

void run_rungs(std::uint64_t seed, Report& report) {
  rung_table(seed, report);  // first: it reads heap growth
  rung_core(seed, report);
  rung_protocol(seed, report);
  rung_runtime(report);
  rung_route(seed, report);
  rung_sim(seed, report);
}

}  // namespace perfbench
