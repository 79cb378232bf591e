// AccountTable::acquire_batch against single acquires: the staged,
// prefetching batch path must be indistinguishable from acquire() calls in
// the same per-shard order (results, balances, stats, hot keys), reject an
// invalid batch before touching anything (also through ShardEngine), make
// no heap allocation beyond its result vector, and stay race-free while
// sweeps, handoffs, namespace resets and index growth run beside it. Also
// pins the service account to Algorithm 4's TokenAccount, draw for draw.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <new>
#include <random>
#include <thread>
#include <vector>

#include "core/account.hpp"
#include "service/account_table.hpp"
#include "service/shard_engine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

// Heap allocation counting for this test binary: the global operator new
// counts while g_counting is set (the aligned and nothrow forms keep their
// defaults; the table allocates through neither).
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// The replacements pair malloc with free by construction; GCC cannot see
// that once they inline into a new/delete pair and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace toka::service {
namespace {

constexpr NamespaceId kOtherNs = 3;

ServiceConfig twin_config() {
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.delta_us = 1000;
  // Generalized: proactive probabilities strictly between 0 and 1, so the
  // shard RNG draws decide balances and any reordering would show.
  cfg.strategy.kind = core::StrategyKind::kGeneralized;
  cfg.strategy.a_param = 2;
  cfg.strategy.c_param = 6;
  cfg.initial_tokens = 2;
  cfg.idle_ttl_us = 40'000;
  cfg.seed = 99;
  cfg.audit = true;
  cfg.watchdog_sample = 3;
  return cfg;
}

NamespaceConfig other_namespace(Tokens c) {
  NamespaceConfig ns;
  ns.strategy.kind = core::StrategyKind::kRandomized;
  ns.strategy.a_param = 3;
  ns.strategy.c_param = c;
  ns.delta_us = 700;
  ns.initial_tokens = 1;
  ns.idle_ttl_us = 30'000;
  ns.max_catchup_ticks = 5;
  ns.audit = true;
  return ns;
}

void expect_same(const AcquireResult& a, const AcquireResult& b,
                 const char* where) {
  EXPECT_EQ(a.granted, b.granted) << where;
  EXPECT_EQ(a.balance, b.balance) << where;
  EXPECT_EQ(a.fresh, b.fresh) << where;
}

void expect_same_tables(AccountTable& batched, AccountTable& single,
                        std::uint64_t key_range) {
  EXPECT_EQ(batched.stats(), single.stats());
  EXPECT_EQ(batched.stats(kOtherNs), single.stats(kOtherNs));
  const auto hot_a = batched.hot_keys(32);
  const auto hot_b = single.hot_keys(32);
  ASSERT_EQ(hot_a.size(), hot_b.size());
  for (std::size_t i = 0; i < hot_a.size(); ++i) {
    EXPECT_EQ(hot_a[i].id, hot_b[i].id) << "hot key " << i;
    EXPECT_EQ(hot_a[i].count, hot_b[i].count) << "hot key " << i;
  }
  for (const NamespaceId ns : {kDefaultNamespace, kOtherNs}) {
    for (std::uint64_t key = 0; key < key_range; ++key) {
      const QueryResult a = batched.query(ns, key);
      const QueryResult b = single.query(ns, key);
      EXPECT_EQ(a.exists, b.exists) << "ns " << ns << " key " << key;
      EXPECT_EQ(a.balance, b.balance) << "ns " << ns << " key " << key;
    }
  }
  EXPECT_EQ(batched.audit_violation(), std::nullopt);
}

TEST(AcquireBatch, EqualsSingleAcquiresUnderMixedTraffic) {
  const ServiceConfig cfg = twin_config();
  AccountTable batched(cfg);
  AccountTable single(cfg);
  batched.configure_namespace(kOtherNs, other_namespace(5));
  single.configure_namespace(kOtherNs, other_namespace(5));

  constexpr std::uint64_t kKeys = 120;
  std::mt19937_64 rng(2024);
  auto below = [&](std::uint64_t n) { return rng() % n; };
  for (int step = 0; step < 1500; ++step) {
    const std::uint64_t kind = below(100);
    const NamespaceId ns = below(3) == 0 ? kOtherNs : kDefaultNamespace;
    if (kind < 55) {
      // A batch, spanning up to three windows, with duplicate keys.
      std::vector<AcquireOp> ops(1 + below(3 * AccountTable::kBatchWindow));
      for (AcquireOp& op : ops)
        op = AcquireOp{below(4) == 0 ? below(8) : below(kKeys),
                       static_cast<Tokens>(below(4))};
      const std::vector<AcquireResult> got = batched.acquire_batch(ns, ops);
      ASSERT_EQ(got.size(), ops.size());
      for (std::size_t i = 0; i < ops.size(); ++i)
        expect_same(got[i], single.acquire(ns, ops[i].key, ops[i].tokens),
                    "batch op");
    } else if (kind < 70) {
      const std::uint64_t key = below(kKeys);
      const Tokens n = static_cast<Tokens>(below(5));
      const RefundResult a = batched.refund(ns, key, n);
      const RefundResult b = single.refund(ns, key, n);
      EXPECT_EQ(a.accepted, b.accepted);
      EXPECT_EQ(a.balance, b.balance);
    } else if (kind < 85) {
      const TimeUs dt = static_cast<TimeUs>(below(3000));
      batched.clock().advance(dt);
      single.clock().advance(dt);
    } else if (kind < 88) {
      // An idle gap far past every catch-up cap (and the TTLs).
      batched.clock().advance(200'000);
      single.clock().advance(200'000);
    } else if (kind < 93) {
      EXPECT_EQ(batched.evict_idle(), single.evict_idle());
    } else if (kind < 98) {
      // A handoff out and back in: extract a slice, re-install half of it.
      const std::uint64_t residue = below(5);
      auto pick = [&](NamespaceId, std::uint64_t key) {
        return key % 5 == residue;
      };
      std::vector<AccountExport> a = batched.extract_if(pick);
      std::vector<AccountExport> b = single.extract_if(pick);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].ns, b[i].ns);
        EXPECT_EQ(a[i].key, b[i].key);
        EXPECT_EQ(a[i].balance, b[i].balance);
        if (i % 2 == 0) {
          EXPECT_TRUE(batched.install_account(a[i].ns, a[i].key, a[i].balance));
          EXPECT_TRUE(single.install_account(b[i].ns, b[i].key, b[i].balance));
        }
      }
    } else {
      // A namespace reset, alternating the capacity.
      const Tokens c = step % 2 == 0 ? 4 : 7;
      batched.configure_namespace(kOtherNs, other_namespace(c));
      single.configure_namespace(kOtherNs, other_namespace(c));
    }
    if (step % 250 == 0) expect_same_tables(batched, single, kKeys);
  }
  expect_same_tables(batched, single, kKeys);
  EXPECT_GT(batched.stats().watchdog_checks, 0u);
  EXPECT_GT(batched.stats().ticks_forfeited, 0u);
  EXPECT_GT(batched.stats().accounts_evicted, 0u);
}

TEST(AcquireBatch, EqualsSingleAcquiresInExclusiveMode) {
  // The engine's mode: no shard locks, same code.
  ServiceConfig cfg = twin_config();
  cfg.exclusive_shards = true;
  AccountTable batched(cfg);
  AccountTable single(cfg);
  batched.configure_namespace(kOtherNs, other_namespace(5));
  single.configure_namespace(kOtherNs, other_namespace(5));
  std::mt19937_64 rng(5);
  for (int round = 0; round < 200; ++round) {
    std::vector<AcquireOp> ops(1 + rng() % 40);
    for (AcquireOp& op : ops) op = AcquireOp{rng() % 64, static_cast<Tokens>(rng() % 3)};
    const std::vector<AcquireResult> got = batched.acquire_batch(ops);
    for (std::size_t i = 0; i < ops.size(); ++i)
      expect_same(got[i], single.acquire(ops[i].key, ops[i].tokens), "op");
    batched.clock().advance(1500);
    single.clock().advance(1500);
  }
  expect_same_tables(batched, single, 64);
}

TEST(AcquireBatch, ServiceAccountDrawsLikeTokenAccount) {
  // One shard, so every account shares one RNG stream: the table's lean
  // per-account state must consume it exactly as core::TokenAccount does
  // (on_tick per elapsed tick up to the cap, then try_spend; refunds via
  // refund_spend capped by the capacity headroom).
  ServiceConfig cfg = twin_config();
  cfg.shards = 1;
  cfg.audit = false;
  cfg.idle_ttl_us = 0;
  AccountTable table(cfg);
  const auto strategy = core::make_strategy(cfg.strategy);
  const Tokens capacity = strategy->capacity();
  const std::int64_t catchup = std::max<Tokens>(2 * capacity, 16);
  util::Rng seeder(cfg.seed);
  util::Rng model_rng = seeder.fork(0);
  struct Model {
    core::TokenAccount account;
    std::int64_t last_tick;
  };
  std::map<std::uint64_t, Model> model;

  std::mt19937_64 rng(17);
  for (int step = 0; step < 4000; ++step) {
    table.clock().advance(static_cast<TimeUs>(rng() % (step % 97 == 0 ? 40'000 : 2500)));
    const TimeUs now = table.clock().now_us();
    const std::int64_t tick = now / cfg.delta_us;
    const std::uint64_t key = rng() % 20;
    const Tokens n = static_cast<Tokens>(rng() % 4);
    auto it = model.find(key);
    const bool refund = rng() % 4 == 0;
    if (refund && it == model.end()) continue;  // dropped, draws nothing
    if (it == model.end()) {
      it = model.emplace(key, Model{core::TokenAccount(*strategy, cfg.initial_tokens),
                                    tick}).first;
    }
    Model& m = it->second;
    const std::int64_t apply = std::min(tick - m.last_tick, catchup);
    for (std::int64_t i = 0; i < apply; ++i) m.account.on_tick(model_rng);
    m.last_tick = tick;
    if (refund) {
      const Tokens headroom = std::max<Tokens>(capacity - m.account.balance(), 0);
      const Tokens accepted = m.account.refund_spend(std::min(n, headroom));
      const RefundResult got = table.refund(key, n);
      ASSERT_EQ(got.accepted, accepted) << "step " << step;
      ASSERT_EQ(got.balance, m.account.balance()) << "step " << step;
    } else {
      const Tokens granted = m.account.try_spend(n);
      const AcquireResult got = table.acquire(key, n);
      ASSERT_EQ(got.granted, granted) << "step " << step;
      ASSERT_EQ(got.balance, m.account.balance()) << "step " << step;
    }
  }
}

TEST(AcquireBatch, InvalidOpRejectsTheWholeBatchUntouched) {
  AccountTable table(twin_config());
  table.acquire(1, 0);
  table.clock().advance(5000);
  const Tokens balance = table.query(1).balance;  // settles key 1
  const TableStats before = table.stats();
  const std::vector<AcquireOp> ops{{1, 1}, {2, 1}, {3, -1}, {4, 1}};
  EXPECT_THROW(table.acquire_batch(ops), util::InvariantError);
  // Nothing applied: no grant, no created account, no counted op.
  EXPECT_EQ(table.stats(), before);
  EXPECT_EQ(table.account_count(), 1u);
  EXPECT_EQ(table.query(1).balance, balance);
  EXPECT_THROW(table.acquire_batch(kOtherNs, std::vector<AcquireOp>{{1, 1}}),
               util::InvariantError);  // unknown namespace
  EXPECT_EQ(table.account_count(), 1u);
}

TEST(AcquireBatch, EngineRetriesARejectedRunWithoutDoubleApplying) {
  // A coalesced engine run holding one invalid op used to apply the ops
  // before it, throw, and then redo the whole run one op at a time: those
  // ops were granted twice and counted twice. The batch is all-or-nothing
  // now, so the redo applies each valid op exactly once.
  ServiceConfig cfg = twin_config();
  cfg.exclusive_shards = true;
  cfg.initial_tokens = 6;
  cfg.audit = false;
  AccountTable table(cfg);
  struct Sink {
    std::mutex mu;
    std::vector<ShardOp> done;
  } sink;
  {
    ShardEngineOptions options;
    options.workers = 1;  // one queue: the four ops coalesce into one run
    ShardEngine engine(table, options);
    engine.quiesced([&] {
      // Parked workers: all four ops are queued before the owner drains.
      for (const AcquireOp& op : std::vector<AcquireOp>{{1, 2}, {2, 2}, {3, -1}, {4, 2}}) {
        ShardOp shard_op;
        shard_op.key = op.key;
        shard_op.tokens = op.tokens;
        shard_op.done = [](ShardOp& done_op, void* ctx) {
          auto* out = static_cast<Sink*>(ctx);
          std::lock_guard lock(out->mu);
          out->done.push_back(done_op);
        };
        shard_op.ctx = &sink;
        engine.submit(shard_op);
      }
    });
    engine.drain();
  }
  std::vector<ShardOp>& done = sink.done;
  ASSERT_EQ(done.size(), 4u);
  std::sort(done.begin(), done.end(),
            [](const ShardOp& a, const ShardOp& b) { return a.key < b.key; });
  for (const ShardOp& op : done) {
    if (op.key == 3) {
      EXPECT_FALSE(op.ok);
      continue;
    }
    EXPECT_TRUE(op.ok);
    EXPECT_EQ(op.out_a, 2) << "key " << op.key;
    EXPECT_EQ(op.out_b, 4) << "key " << op.key;  // 6 - 2, deducted once
  }
  const TableStats stats = table.stats();
  EXPECT_EQ(stats.acquires, 3u);
  EXPECT_EQ(stats.tokens_granted, 6u);
  EXPECT_EQ(table.query(1).balance, 4);
  EXPECT_EQ(stats.watchdog_violations, 0u);
}

TEST(AcquireBatch, AllocatesOnlyItsResultVector) {
  ServiceConfig cfg = twin_config();
  cfg.shards = 16;
  cfg.audit = false;        // the test-only auditor grows a trace per grant
  cfg.watchdog_sample = 2;  // the watchdog's ring is fixed-size: kept on
  AccountTable table(cfg);
  constexpr std::uint64_t kKeys = 4096;
  std::vector<AcquireOp> all;
  for (std::uint64_t key = 0; key < kKeys; ++key) all.push_back({key, 0});
  table.acquire_batch(all);  // every account exists from here on

  std::mt19937_64 rng(3);
  std::vector<std::vector<AcquireOp>> batches;
  for (int b = 0; b < 400; ++b) {
    std::vector<AcquireOp> ops(b % 4 == 0 ? 100 : 16);  // 1 or 4 windows
    for (AcquireOp& op : ops) op = AcquireOp{rng() % kKeys, 1};
    batches.push_back(std::move(ops));
  }
  std::uint64_t granted = 0;
  g_allocations.store(0);
  g_counting.store(true);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    if (b % 50 == 0) table.clock().advance(cfg.delta_us);
    for (const AcquireResult& r : table.acquire_batch(batches[b]))
      granted += static_cast<std::uint64_t>(r.granted);
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), batches.size());
  EXPECT_GT(granted, 0u);
  EXPECT_GT(table.stats().watchdog_checks, 0u);
}

TEST(AcquireBatch, BatchesRaceSweepsHandoffsResetsAndGrowth) {
  // Four threads run batches over a key space that keeps growing (index
  // rehashes mid-run) while a fifth sweeps evictions, extracts and
  // re-installs accounts, and resets a namespace. Runs under TSan in CI.
  ServiceConfig cfg = twin_config();
  cfg.shards = 8;
  AccountTable table(cfg);
  table.configure_namespace(kOtherNs, other_namespace(5));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> batches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) + 1);
      std::uint64_t range = 64;
      std::vector<AcquireOp> ops(24);
      while (!stop.load(std::memory_order_relaxed)) {
        range += 8;  // fresh keys: the shards' indexes keep growing
        for (AcquireOp& op : ops) op = AcquireOp{rng() % range, static_cast<Tokens>(rng() % 3)};
        const NamespaceId ns = rng() % 2 == 0 ? kOtherNs : kDefaultNamespace;
        for (const AcquireResult& r : table.acquire_batch(ns, ops)) {
          EXPECT_GE(r.granted, 0);
          EXPECT_LE(r.granted, 2);
        }
        batches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  threads.emplace_back([&] {
    std::uint64_t round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      table.clock().advance(5000);
      table.evict_idle();
      const std::uint64_t residue = round % 7;
      for (const AccountExport& e :
           table.extract_if([&](NamespaceId, std::uint64_t key) {
             return key % 7 == residue && key % 3 == 0;
           }))
        table.install_account(e.ns, e.key, e.balance);
      if (round % 5 == 0)
        table.configure_namespace(kOtherNs, other_namespace(round % 2 == 0 ? 4 : 6));
      ++round;
    }
  });
  while (batches.load() < 2000) std::this_thread::yield();
  stop.store(true);
  for (auto& thread : threads) thread.join();

  const TableStats stats = table.stats();
  EXPECT_LE(stats.tokens_granted, stats.tokens_requested);
  EXPECT_EQ(stats.watchdog_violations, 0u);
  EXPECT_EQ(table.audit_violation(), std::nullopt);
  EXPECT_EQ(stats.accounts, table.account_count());
  // Every account is still findable and within its capacity.
  for (std::uint64_t key = 0; key < 2048; ++key) {
    EXPECT_LE(table.query(key).balance, table.capacity_bound());
    EXPECT_LE(table.query(kOtherNs, key).balance, 6);
  }
}

}  // namespace
}  // namespace toka::service
