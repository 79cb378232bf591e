// cluster_repl: a cluster::ClusterClient keeping 64 single acquires in
// flight over three cluster::ClusterServer nodes with replicas=1, on a
// runtime::InProcNetwork with one dispatcher lane per node (as
// examples/tokad_cluster.cpp runs them). No sockets are involved.
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "cluster/cluster_client.hpp"
#include "cluster/cluster_map.hpp"
#include "cluster/cluster_server.hpp"
#include "cluster/hash_ring.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "obs/telemetry.hpp"
#include "runtime/inproc.hpp"
#include "timing_transport.hpp"

namespace perfbench {
namespace {

using toka::service::AcquireResult;

constexpr double kZipf = 0.99;
constexpr std::size_t kNodes = 3;
constexpr int kWindow = 64;

toka::cluster::ClusterMap cluster_map() {
  return toka::cluster::ClusterMap{1, toka::cluster::kDefaultVnodes, {0, 1, 2},
                                   /*replicas=*/1};
}

struct ClusterNode {
  ClusterNode(toka::runtime::Transport& endpoint,
              const toka::cluster::ClusterMap& map,
              const std::vector<std::uint64_t>& owned, std::size_t capacity)
      : table(service_config()), clock(table, 1000), timed(endpoint, capacity) {
    preload(table, owned);
    toka::service::ServerOptions options;
    options.registry = &registry;
    server = std::make_unique<toka::cluster::ClusterServer>(table, timed, map,
                                                            options);
    clock.start();
  }

  ~ClusterNode() {
    server.reset();
    clock.stop();
  }

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  toka::service::AccountTable table;
  toka::obs::Registry registry;
  toka::service::ClockDriver clock;
  TimingTransport timed;
  std::unique_ptr<toka::cluster::ClusterServer> server;
};

/// Nodes 0..2 are the servers; endpoint 3+s is the client's connection to
/// server s, so lane s carries node s's requests and its replies.
struct ClusterStack {
  ClusterStack(const std::vector<std::uint64_t>& keys, std::size_t capacity)
      : net(2 * kNodes, /*latency_us=*/0, /*dispatchers=*/kNodes) {
    const toka::cluster::ClusterMap map = cluster_map();
    const toka::cluster::HashRing ring(map);
    std::vector<std::vector<std::uint64_t>> owned(kNodes);
    for (const std::uint64_t key : keys) owned[ring.owner(0, key)].push_back(key);
    for (std::size_t n = 0; n < kNodes; ++n) {
      nodes.push_back(std::make_unique<ClusterNode>(
          net.endpoint(static_cast<toka::NodeId>(n)), map, owned[n], capacity));
      client_eps.push_back(std::make_unique<TimingTransport>(
          net.endpoint(static_cast<toka::NodeId>(kNodes + n)), capacity));
    }
    net.start();
    client = std::make_unique<toka::cluster::ClusterClient>(
        [this](toka::NodeId server) -> toka::runtime::Transport& {
          return *client_eps.at(server);
        },
        map);
  }

  ~ClusterStack() {
    client.reset();
    nodes.clear();
    net.stop();
  }

  ClusterStack(const ClusterStack&) = delete;
  ClusterStack& operator=(const ClusterStack&) = delete;

  void set_timing(bool on) {
    for (auto& node : nodes) node->timed.set_timing(on);
    for (auto& ep : client_eps) ep->set_timing(on);
  }

  std::uint64_t max_lag() const {
    std::uint64_t lag = 0;
    for (const auto& node : nodes)
      lag = std::max(lag, node->server->replication().lag_rounds());
    return lag;
  }

  toka::runtime::InProcNetwork net;
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  std::vector<std::unique_ptr<TimingTransport>> client_eps;
  std::unique_ptr<toka::cluster::ClusterClient> client;
};

/// Closed loop: kWindow chains, each re-issuing from its completion (on a
/// dispatcher lane) until the end of the run.
struct ClusterLoop {
  ClusterLoop(toka::cluster::ClusterClient& c,
              const std::vector<std::uint64_t>& k, const RunSpec& spec,
              std::int64_t start, std::size_t capacity)
      : client(&c), keys(&k), log(make_log(spec, start, capacity)),
        issue_ns(spec.traced ? std::size_t{1} << 21 : 1) {}

  toka::cluster::ClusterClient* client;
  const std::vector<std::uint64_t>* keys;
  PhaseLog log;
  SampleBuffer issue_ns;
  std::atomic<bool> timing{false};
  std::atomic<std::uint64_t> position{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<int> live{0};

  void issue() {
    const std::uint64_t p = position.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t key = (*keys)[p % keys->size()];
    const bool timed = timing.load(std::memory_order_relaxed);
    const std::int64_t t0 = now_ns();
    client->acquire_async(0, key, 1,
                          [this, t0](AcquireResult r, std::exception_ptr e) {
                            done(t0, r, e);
                          });
    if (timed) issue_ns.record(now_ns() - t0);
  }

  void done(std::int64_t t0, const AcquireResult& r,
            const std::exception_ptr& error) {
    const std::int64_t now = now_ns();
    if (error != nullptr) {
      failed.fetch_add(1, std::memory_order_relaxed);
      live.fetch_sub(1, std::memory_order_release);
      return;
    }
    if (r.granted < 0 || r.granted > 1) wrong.fetch_add(1, std::memory_order_relaxed);
    log.record(now, now - t0, 1);
    if (now < log.end()) {
      issue();
    } else {
      live.fetch_sub(1, std::memory_order_release);
    }
  }
};

void report_cluster_layers(ClusterStack& stack, std::uint64_t attempted,
                           std::uint64_t max_lag, Report& report) {
  std::vector<double> handler_us;
  std::uint64_t frames = 0;
  std::uint64_t accounts = 0;
  for (const auto& node : stack.nodes) {
    const std::vector<double> h = node->timed.handler_ns().values(1e-3);
    handler_us.insert(handler_us.end(), h.begin(), h.end());
    frames += node->server->replication().deltas_sent();
    accounts += node->server->replication().delta_accounts_sent();
  }
  const double kops = static_cast<double>(attempted) / 1000.0;
  report.metric("cluster.node_handler_us_p50", percentile(handler_us, 0.5).value,
                "us");
  report.metric("cluster.redirects_per_kop",
                static_cast<double>(stack.client->redirects_followed()) / kops,
                "1/kop");
  report.metric("cluster.io_retries",
                static_cast<double>(stack.client->io_retries()), "count");
  report.metric("cluster.repl_frames_per_kop", static_cast<double>(frames) / kops,
                "1/kop");
  report.metric("cluster.repl_accounts_per_frame",
                frames == 0 ? 0
                            : static_cast<double>(accounts) /
                                  static_cast<double>(frames),
                "ratio");
  report.metric("cluster.repl_lag_max_rounds", static_cast<double>(max_lag),
                "rounds");
}

/// Stamps the share of the request stream each node owns and whether it
/// left the split the key space was chosen for (see kSaltCluster).
void stamp_ring_split(const std::vector<std::uint64_t>& stream, Report& report) {
  const toka::cluster::HashRing ring(cluster_map());
  std::array<double, kNodes> share{};
  for (const std::uint64_t key : stream) share[ring.owner(0, key)] += 1;
  std::string json = "[";
  bool moved = false;
  for (std::size_t n = 0; n < kNodes; ++n) {
    share[n] /= static_cast<double>(stream.size());
    moved = moved || std::fabs(share[n] - kClusterSplit[n]) > kClusterSplitTolerance;
    if (n > 0) json += ",";
    json += json_number(share[n]);
  }
  json += "]";
  report.stamp("ring_split", json);
  report.stamp("ring_split_moved", moved ? "true" : "false");
  if (moved)
    std::fprintf(stderr,
                 "perfbench: RING SPLIT MOVED: cluster_repl's load split is %s, "
                 "not the 0.30/0.35/0.35 its key space was chosen for; its "
                 "figures are not comparable with runs on the old split\n",
                 json.c_str());
}

}  // namespace

void run_cluster_repl(const RunSpec& spec, Report& report) {
  const std::size_t key_count = spec.mini ? 64 * 1024 : 1024 * 1024;
  const std::vector<std::uint64_t> keys = key_space(kSaltCluster, key_count);
  const std::vector<std::uint64_t> stream =
      zipf_keys(kSaltCluster, spec.seed, key_count, kZipf, std::size_t{1} << 20);
  if (!spec.mini) stamp_ring_split(stream, report);
  const std::size_t capacity = spec.traced ? (std::size_t{1} << 20) : 1;
  TrialSet trials(spec, report);
  std::vector<double> steal;

  for (int t = 0; t < trials.count(); ++t) {
    std::unique_ptr<ClusterStack> stack = trials.build(
        [&] { return std::make_unique<ClusterStack>(keys, capacity); });
    const std::int64_t start = now_ns() + 2'000'000;
    // Every trial replays the same stream (positions restart at 0).
    auto loop = std::make_unique<ClusterLoop>(*stack->client, stream,
                                              trials.trial_spec(), start,
                                              std::size_t{1} << 23);
    StealProbe probe(loop->log.warm_end(), loop->log.end());
    sleep_until_ns(start);
    loop->live.store(kWindow);
    for (int c = 0; c < kWindow; ++c) loop->issue();

    // The main thread only watches: replication lag, and the traced window.
    std::uint64_t max_lag = 0;
    bool timing_on = false;
    while (now_ns() < loop->log.end()) {
      if (spec.traced && !timing_on && now_ns() >= loop->log.split()) {
        stack->set_timing(true);
        loop->timing.store(true);
        timing_on = true;
      }
      if (now_ns() >= loop->log.warm_end())
        max_lag = std::max(max_lag, stack->max_lag());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const bool drained = wait_for(
        [&] { return loop->live.load(std::memory_order_acquire) == 0; }, 10);
    stack->set_timing(false);
    loop->timing.store(false);
    steal.push_back(probe.result());

    const std::uint64_t attempted = loop->position.load();
    if (!drained)
      report.fail("cluster_repl: " + std::to_string(loop->live.load()) +
                  " acquires never completed");
    if (loop->failed.load() != 0)
      report.fail("cluster_repl: " + std::to_string(loop->failed.load()) +
                  " cluster ops ran out of retries");
    if (loop->wrong.load() != 0)
      report.fail("cluster_repl: " + std::to_string(loop->wrong.load()) +
                  " grants larger than the request");
    report.add_ops(attempted, loop->failed.load());
    toka::service::TableStats stats;
    for (const auto& node : stack->nodes) stats.merge(node->table.stats());
    check_watchdog(stats, "cluster_repl", report);
    if (spec.traced) report_cluster_layers(*stack, attempted, max_lag, report);
    // Pending completions touch `loop`: the stack (and its client) goes first.
    stack.reset();
    trials.add(loop->log);
  }
  trials.finish();
  report_steal(median(steal), spec, report);
}

}  // namespace perfbench
