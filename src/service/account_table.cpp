#include "service/account_table.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <sstream>
#include <utility>

#include "core/account.hpp"
#include "util/error.hpp"

namespace toka::service {

namespace {

// The watchdog sample set must not correlate with shard placement, which
// hashes splitmix64(fold_key) directly — salting the fold first gives an
// independent bit stream, so sampled keys land on every shard.
constexpr std::uint64_t kWatchdogSalt = 0xA24BAED4963EE407ULL;

bool watchdog_samples(std::uint64_t sample_every, NamespaceId ns,
                      std::uint64_t key) {
  if (sample_every == 0) return false;
  if (sample_every == 1) return true;
  std::uint64_t state = AccountTable::fold_key(ns, key) ^ kWatchdogSalt;
  return util::splitmix64(state) % sample_every == 0;
}

}  // namespace

void CoarseClock::advance_to(TimeUs t) {
  TimeUs cur = now_.load(std::memory_order_relaxed);
  while (t > cur &&
         !now_.compare_exchange_weak(cur, t, std::memory_order_relaxed)) {
    // cur reloaded by the failed CAS; retry until t is not ahead anymore.
  }
}

void CoarseClock::advance(TimeUs dt) {
  TOKA_CHECK_MSG(dt >= 0, "clock cannot retreat, got dt=" << dt);
  advance_to(now_.load(std::memory_order_relaxed) + dt);
}

std::shared_ptr<const AccountTable::Namespace> AccountTable::make_namespace(
    NamespaceId ns, const NamespaceConfig& config) {
  TOKA_CHECK_MSG(config.delta_us > 0,
                 "namespace " << ns << ": token period must be positive, got "
                              << config.delta_us);
  TOKA_CHECK_MSG(config.idle_ttl_us >= 0,
                 "namespace " << ns << ": idle TTL must be non-negative, got "
                              << config.idle_ttl_us);
  auto out = std::make_shared<Namespace>();
  out->id = ns;
  out->config = config;
  out->strategy = core::make_strategy(config.strategy);
  // The effective balance cap: the framework capacity for the paper's
  // strategies, the bucket size for the classic token bucket (whose
  // framework capacity is unbounded — the account's bucket_cap enforces
  // the bound instead, as in the simulator).
  if (config.strategy.kind == core::StrategyKind::kTokenBucket) {
    out->capacity = config.strategy.c_param;
    out->bucket_cap = config.strategy.c_param;
  } else {
    out->capacity = out->strategy->capacity();
    out->bucket_cap = 0;
  }
  TOKA_CHECK_MSG(out->capacity != core::kUnboundedCapacity,
                 "namespace " << ns
                              << ": the service requires a bounded-capacity "
                                 "strategy; "
                              << out->strategy->name()
                              << " has unbounded bursts");
  TOKA_CHECK_MSG(
      config.initial_tokens >= 0 && config.initial_tokens <= out->capacity,
      "namespace " << ns << ": initial balance " << config.initial_tokens
                   << " outside [0, C=" << out->capacity << "]");
  out->catchup_limit = config.max_catchup_ticks > 0
                           ? config.max_catchup_ticks
                           : std::max<Tokens>(2 * out->capacity, 16);
  return out;
}

AccountTable::AccountTable(ServiceConfig config) : config_(std::move(config)) {
  namespaces_.emplace(kDefaultNamespace,
                      make_namespace(kDefaultNamespace,
                                     config_.default_namespace()));
  const std::size_t shards =
      std::bit_ceil(std::max<std::size_t>(config_.shards, 1));
  shard_mask_ = shards - 1;
  util::Rng seeder(config_.seed);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->rng = seeder.fork(i);
    shards_.push_back(std::move(shard));
  }
}

bool AccountTable::configure_namespace(NamespaceId ns,
                                       const NamespaceConfig& config) {
  auto fresh = make_namespace(ns, config);  // validates before any mutation
  bool created;
  std::shared_ptr<const Namespace> old;
  {
    std::unique_lock lock(ns_mu_);
    auto [it, inserted] = namespaces_.try_emplace(ns, fresh);
    created = inserted;
    if (!inserted) {
      old = std::move(it->second);
      it->second = std::move(fresh);
    }
  }
  // Reset semantics on replace: retire the outgoing snapshot *before* the
  // purge, then drop the namespace's accounts so every key restarts under
  // the new policy from the initial balance (under-grants only). Requests
  // racing the reset may briefly finish against an existing entry under
  // the old policy — entries hold their Namespace alive — but account
  // *creation* re-resolves on a retired snapshot, so once the purge has
  // swept a shard no old-policy account can reappear in it: either the
  // insert happened before the retire flag (then the purge, serialized
  // behind the same shard lock, removes it) or the inserter saw the flag
  // and created under the new policy.
  if (!created) {
    old->retired.store(true, std::memory_order_release);
    purge_namespace(ns);
  }
  return created;
}

void AccountTable::purge_namespace(NamespaceId ns) {
  for (auto& shard : shards_) {
    ShardGuard lock(*this, *shard);
    const std::size_t removed =
        shard->accounts.erase_if([&](const Entry& entry) {
          if (entry.ns_id != ns) return false;
          drop_cold(*shard, entry);
          return true;
        });
    stats_for(*shard, ns).accounts_evicted += removed;
  }
}

bool AccountTable::has_namespace(NamespaceId ns) const {
  std::shared_lock lock(ns_mu_);
  return namespaces_.contains(ns);
}

std::size_t AccountTable::namespace_count() const {
  std::shared_lock lock(ns_mu_);
  return namespaces_.size();
}

std::optional<NamespaceInfo> AccountTable::namespace_info(
    NamespaceId ns) const {
  std::shared_ptr<const Namespace> nsp;
  {
    std::shared_lock lock(ns_mu_);
    auto it = namespaces_.find(ns);
    if (it == namespaces_.end()) return std::nullopt;
    nsp = it->second;
  }
  NamespaceInfo info;
  info.config = nsp->config;
  info.capacity = nsp->capacity;
  for (const auto& shard : shards_) {
    ShardGuard lock(*this, *shard);
    shard->accounts.for_each([&](const Entry& entry) {
      if (entry.ns_id == ns) ++info.accounts;
    });
  }
  return info;
}

TimeUs AccountTable::min_idle_ttl_us() const {
  std::shared_lock lock(ns_mu_);
  TimeUs min_ttl = 0;
  for (const auto& [id, nsp] : namespaces_) {
    const TimeUs ttl = nsp->config.idle_ttl_us;
    if (ttl > 0 && (min_ttl == 0 || ttl < min_ttl)) min_ttl = ttl;
  }
  return min_ttl;
}

Tokens AccountTable::capacity_bound(NamespaceId ns) const {
  return resolve(ns)->capacity;
}

std::shared_ptr<const AccountTable::Namespace> AccountTable::resolve(
    NamespaceId ns) const {
  std::shared_lock lock(ns_mu_);
  auto it = namespaces_.find(ns);
  TOKA_CHECK_MSG(it != namespaces_.end(),
                 "unknown namespace " << ns
                                      << " (the server answers typed errors; "
                                         "direct callers must create it first)");
  return it->second;
}

TableStats& AccountTable::stats_for(Shard& shard, NamespaceId ns) {
  // One-slot cache: unordered_map values are node-stable, so the pointer
  // survives later insertions for other namespaces.
  if (shard.cached_stats != nullptr && shard.cached_ns == ns)
    return *shard.cached_stats;
  TableStats& stats = shard.stats[ns];
  shard.cached_ns = ns;
  shard.cached_stats = &stats;
  return stats;
}

AccountTable::Entry* AccountTable::find(Shard& shard, NamespaceId ns,
                                        std::uint64_t key,
                                        std::uint64_t hash) {
  const auto i = shard.accounts.find(hash, [&](const Entry& e) {
    return e.key == key && e.ns_id == ns;
  });
  return i == FlatStore<Entry, EntryHash>::kNotFound ? nullptr
                                                     : &shard.accounts.at(i);
}

FlatStore<AccountTable::Cold, AccountTable::ColdHash>::Index
AccountTable::cold_index(const Shard& shard, const Entry& entry,
                         std::uint64_t hash) {
  return shard.cold.find(hash, [&](const Cold& c) {
    return c.key == entry.key && c.ns_id == entry.ns_id;
  });
}

void AccountTable::drop_cold(Shard& shard, const Entry& entry) {
  if ((entry.flags & kHasCold) == 0) return;
  shard.cold.erase(
      cold_index(shard, entry, hash_key(entry.ns_id, entry.key)));
}

AccountTable::Entry& AccountTable::create(Shard& shard, const Namespace& ns,
                                          std::uint64_t key,
                                          std::uint64_t hash, Tokens balance,
                                          TimeUs now) {
  Entry entry;
  entry.key = key;
  entry.ns_id = ns.id;
  entry.balance = balance;
  entry.last_tick = now / ns.config.delta_us;
  entry.last_access_us = now;
  entry.ns = &ns;
  // The audit traces start empty: a created balance is at most C, so
  // spending it all at once still fits the first window's 1 + C slack.
  Cold cold{key, ns.id, nullptr, nullptr};
  if (ns.config.audit) {
    cold.auditor = std::make_unique<core::RateLimitAuditor>(
        ns.config.delta_us, ns.capacity);
  }
  if (watchdog_samples(config_.watchdog_sample, ns.id, key)) {
    cold.watchdog = std::make_unique<core::BurstWatchdog>(ns.config.delta_us,
                                                          ns.capacity);
  }
  if (cold.auditor || cold.watchdog) {
    entry.flags |= kHasCold;
    shard.cold.insert(hash, std::move(cold));
  }
  ++stats_for(shard, ns.id).accounts_created;
  return shard.accounts.at(shard.accounts.insert(hash, entry));
}

AccountTable::Entry& AccountTable::find_or_create(
    Shard& shard, const std::shared_ptr<const Namespace>& ns,
    std::uint64_t key, std::uint64_t hash, TimeUs now) {
  if (Entry* entry = find(shard, ns->id, key, hash)) return *entry;
  // Creation re-resolves a retired snapshot (taking ns_mu_ shared while
  // holding the shard lock is safe: configure_namespace never holds shard
  // locks under ns_mu_). See Namespace::retired for why this closes the
  // reset/acquire resurrection race.
  std::shared_ptr<const Namespace> current = ns;
  while (current->retired.load(std::memory_order_acquire))
    current = resolve(current->id);
  return create(shard, *current, key, hash, current->config.initial_tokens,
                now);
}

void AccountTable::settle(Shard& shard, Entry& entry, TimeUs now) {
  // The tick index comes from the *entry's own* namespace snapshot: an
  // entry surviving a racing reconfigure has a last_tick recorded under
  // the old Δ, and dividing `now` by the new Δ would fabricate (or eat)
  // elapsed ticks — a shrunk Δ would instantly refill the account past
  // what real time banked, breaking the "reset only under-grants" rule.
  const Namespace& ns = *entry.ns;
  const std::int64_t tick = now / ns.config.delta_us;
  const std::int64_t due = tick - entry.last_tick;
  if (due > 0) {
    const std::int64_t apply = std::min<std::int64_t>(due, ns.catchup_limit);
    TableStats& stats = stats_for(shard, ns.id);
    stats.ticks_forfeited += static_cast<std::uint64_t>(due - apply);
    for (std::int64_t i = 0; i < apply; ++i) {
      // A proactive decision has no message to pay for here: the period's
      // token is dropped (never banked), exactly like the simulator's
      // no-online-peer rule, preserving balance <= C and with it §3.4.
      if (core::apply_tick(*ns.strategy, ns.bucket_cap, entry.balance,
                           shard.rng) == core::TickOutcome::kProactive)
        ++stats.proactive_dropped;
    }
    entry.last_tick = tick;
  }
  entry.last_access_us = now;
}

AcquireResult AccountTable::acquire_locked(
    Shard& shard, const std::shared_ptr<const Namespace>& ns,
    std::uint64_t key, std::uint64_t hash, Tokens n, TimeUs now) {
  Entry& entry = find_or_create(shard, ns, key, hash, now);
  // Balance before this call's settle: a grant within it was banked; a
  // grant beyond it spent tokens the settle just minted ("fresh").
  const Tokens banked = entry.balance;
  settle(shard, entry, now);
  Tokens want = n;
  if (repl_enabled_.load(std::memory_order_relaxed)) {
    // The spend gate: never grant below the highest floor a promoted
    // follower might still install. Grants above the gated headroom wait
    // for the stream to catch up (the gate collapses on ack in
    // drain_replica_dirty) — the availability price of the never-duplicate
    // guarantee under failover.
    const Tokens spendable = std::max<Tokens>(entry.balance - entry.repl_gate, 0);
    want = std::min(want, spendable);
  }
  // TokenAccount::try_spend without overdraft.
  const Tokens granted = std::min(want, std::max<Tokens>(entry.balance, 0));
  entry.balance -= granted;
  entry.spends += static_cast<std::uint64_t>(granted);
  mark_repl_dirty(shard, entry);
  TableStats& stats = stats_for(shard, ns->id);
  ++stats.acquires;
  stats.tokens_requested += static_cast<std::uint64_t>(n);
  stats.tokens_granted += static_cast<std::uint64_t>(granted);
  shard.hot.record(fold_key(ns->id, key));
  if ((entry.flags & kHasCold) != 0 && granted > 0) {
    Cold& cold = shard.cold.at(cold_index(shard, entry, hash));
    if (cold.auditor) {
      for (Tokens i = 0; i < granted; ++i) cold.auditor->record(now);
    }
    if (cold.watchdog) {
      const std::uint64_t before = cold.watchdog->checks();
      stats.watchdog_violations += cold.watchdog->record(now, granted);
      stats.watchdog_checks += cold.watchdog->checks() - before;
    }
  }
  return AcquireResult{granted, entry.balance, granted > banked};
}

AcquireResult AccountTable::acquire(NamespaceId ns, std::uint64_t key,
                                    Tokens n) {
  TOKA_CHECK_MSG(n >= 0, "acquire requires n >= 0, got " << n);
  // Resolve the namespace once: strategy, Δ (the clock divisor) and
  // capacity all come out of this one registry lookup.
  const std::shared_ptr<const Namespace> nsp = resolve(ns);
  const std::uint64_t hash = hash_key(ns, key);
  Shard& shard = shard_of_hash(hash);
  ShardGuard lock(*this, shard);
  // Read the clock only while holding the shard lock: lock ordering plus
  // atomic read coherence then guarantee non-decreasing times per account,
  // which settle()'s bookkeeping and the auditor's record() rely on.
  return acquire_locked(shard, nsp, key, hash, n, clock_.now_us());
}

RefundResult AccountTable::refund(NamespaceId ns, std::uint64_t key,
                                  Tokens n) {
  TOKA_CHECK_MSG(n >= 0, "refund requires n >= 0, got " << n);
  resolve(ns);  // reject unknown namespaces before touching the shard
  const std::uint64_t hash = hash_key(ns, key);
  Shard& shard = shard_of_hash(hash);
  ShardGuard lock(*this, shard);
  const TimeUs now = clock_.now_us();
  TableStats& stats = stats_for(shard, ns);
  ++stats.refunds;
  Entry* found = find(shard, ns, key, hash);
  if (found == nullptr) {
    // Unknown or already-evicted account: the refund is dropped. Creating
    // an account here would let arbitrary keys mint balance from thin air.
    // The event counter (as opposed to the token count below) is what the
    // telemetry exports: a climbing refunds_dropped means callers are
    // refunding keys the table no longer knows — a TTL tuned too tight or
    // a buggy caller, either way worth seeing.
    ++stats.refunds_dropped;
    stats.tokens_refund_dropped += static_cast<std::uint64_t>(n);
    return RefundResult{0, 0};
  }
  Entry& entry = *found;
  settle(shard, entry, now);
  // Cap at the capacity headroom: ticks banked since the acquire may have
  // refilled the balance, and a late refund must not push it past C (that
  // would mint burst allowance past the §3.4 bound). The spends still
  // outstanding cap it further (TokenAccount::refund_spend). The caps come
  // from the entry's own namespace snapshot, so accounts racing a
  // reconfigure stay within the policy they were created under.
  const Tokens headroom = std::max<Tokens>(entry.ns->capacity - entry.balance, 0);
  const Tokens accepted =
      std::min(std::min(n, headroom), static_cast<Tokens>(entry.spends));
  entry.balance += accepted;
  entry.spends -= static_cast<std::uint64_t>(accepted);
  mark_repl_dirty(shard, entry);
  if ((entry.flags & kHasCold) != 0) {
    Cold& cold = shard.cold.at(cold_index(shard, entry, hash));
    // The returned tokens' admissions never happened: strike them from the
    // audit trace so first_violation() checks *net* admissions. accepted
    // <= outstanding spends == recorded sends, so retract cannot underflow.
    if (cold.auditor) cold.auditor->retract(static_cast<std::size_t>(accepted));
    if (cold.watchdog) cold.watchdog->retract(accepted);
  }
  stats.tokens_refunded += static_cast<std::uint64_t>(accepted);
  stats.tokens_refund_dropped += static_cast<std::uint64_t>(n - accepted);
  return RefundResult{accepted, entry.balance};
}

QueryResult AccountTable::query(NamespaceId ns, std::uint64_t key) {
  resolve(ns);  // reject unknown namespaces before touching the shard
  const std::uint64_t hash = hash_key(ns, key);
  Shard& shard = shard_of_hash(hash);
  ShardGuard lock(*this, shard);
  const TimeUs now = clock_.now_us();
  ++stats_for(shard, ns).queries;
  Entry* entry = find(shard, ns, key, hash);
  if (entry == nullptr) return QueryResult{0, false};
  settle(shard, *entry, now);
  return QueryResult{entry->balance, true};
}

std::vector<AcquireResult> AccountTable::acquire_batch(
    NamespaceId ns, std::span<const AcquireOp> ops) {
  // All-or-nothing: every op is checked before any shard is touched, so a
  // rejected batch applied nothing and a caller may retry it op by op.
  for (const AcquireOp& op : ops)
    TOKA_CHECK_MSG(op.tokens >= 0, "acquire requires n >= 0, got " << op.tokens);
  const std::shared_ptr<const Namespace> nsp = resolve(ns);
  std::vector<AcquireResult> results(ops.size());
  for (std::size_t begin = 0; begin < ops.size(); begin += kBatchWindow) {
    const std::size_t n = std::min(kBatchWindow, ops.size() - begin);
    acquire_window(nsp, ops.subspan(begin, n), results.data() + begin);
  }
  return results;
}

void AccountTable::acquire_window(const std::shared_ptr<const Namespace>& ns,
                                  std::span<const AcquireOp> ops,
                                  AcquireResult* out) {
  // Stage 1: hash every op once, and order the window by shard (insertion
  // sort, stable, so each shard's ops keep their batch order).
  const std::size_t n = ops.size();
  std::array<std::uint64_t, kBatchWindow> hashes{};
  static_assert(kBatchWindow <= 256, "window positions are bytes");
  std::array<std::uint8_t, kBatchWindow> order{};
  const auto shard_at = [&](std::size_t op) {
    return static_cast<std::size_t>(hashes[op]) & shard_mask_;
  };
  for (std::size_t i = 0; i < n; ++i) {
    hashes[i] = hash_key(ns->id, ops[i].key);
    std::size_t j = i;
    for (; j > 0 && shard_at(order[j - 1]) > shard_at(i); --j)
      order[j] = order[j - 1];
    order[j] = static_cast<std::uint8_t>(i);
  }
  // Stage 2: start every op's index-slot miss before taking any lock.
  for (std::size_t i = 0; i < n; ++i)
    shards_[shard_at(i)]->accounts.prefetch_slot(hashes[i]);
  // Calls visit(shard, ops) for each run of same-shard ops, in ascending
  // shard order.
  const auto for_each_shard = [&](auto&& visit) {
    for (std::size_t begin = 0; begin < n;) {
      const std::size_t s = shard_at(order[begin]);
      std::size_t end = begin + 1;
      while (end < n && shard_at(order[end]) == s) ++end;
      visit(*shards_[s], std::span<const std::uint8_t>(&order[begin], end - begin));
      begin = end;
    }
  };
  // Stage 3: per shard, under its lock alone, read the (now arriving)
  // slots and start the entry misses. Nothing is kept across the unlock:
  // stage 4 looks each op up again, hitting cache.
  for_each_shard([&](Shard& shard, std::span<const std::uint8_t> run) {
    ShardGuard lock(*this, shard);
    for (const std::uint8_t op : run) {
      const auto i = shard.accounts.candidate(hashes[op]);
      if (i != FlatStore<Entry, EntryHash>::kNotFound)
        shard.accounts.prefetch_entry(i);
    }
  });
  // Stage 4: execute, one shard at a time. Clock read under the shard
  // lock, as in acquire(): keeps per-account times non-decreasing across
  // concurrent batches.
  for_each_shard([&](Shard& shard, std::span<const std::uint8_t> run) {
    ShardGuard lock(*this, shard);
    const TimeUs now = clock_.now_us();
    for (const std::uint8_t op : run)
      out[op] = acquire_locked(shard, ns, ops[op].key, hashes[op], ops[op].tokens,
                               now);
  });
}

std::size_t AccountTable::evict_idle() {
  if (min_idle_ttl_us() == 0) return 0;
  std::size_t evicted = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i)
    evicted += evict_idle_shard(i);
  return evicted;
}

std::size_t AccountTable::evict_idle_shard(std::size_t shard_idx) {
  TOKA_CHECK_MSG(shard_idx < shards_.size(),
                 "shard index " << shard_idx << " out of range");
  Shard& shard = *shards_[shard_idx];
  const TimeUs now = clock_.now_us();
  ShardGuard lock(*this, shard);
  return shard.accounts.erase_if([&](const Entry& entry) {
    const TimeUs ttl = entry.ns->config.idle_ttl_us;
    const TimeUs idle = now - entry.last_access_us;
    // A nonzero banked balance earns a grace window up to 2x the TTL:
    // evicting at the TTL would drop the account — and with it any
    // refund still in flight for its outstanding grants — the moment it
    // goes quiet. The balance read is the unsettled banked value, which
    // only errs on the side of keeping the account.
    const bool expired = ttl > 0 && idle >= ttl &&
                         (entry.balance == 0 || idle >= 2 * ttl);
    if (!expired) return false;
    ++stats_for(shard, entry.ns_id).accounts_evicted;
    drop_cold(shard, entry);
    return true;
  });
}

std::vector<AccountExport> AccountTable::extract_if(
    const std::function<bool(NamespaceId, std::uint64_t)>& should_extract) {
  std::vector<AccountExport> out;
  for (auto& shard : shards_) {
    ShardGuard lock(*this, *shard);
    shard->accounts.erase_if([&](const Entry& entry) {
      if (!should_extract(entry.ns_id, entry.key)) return false;
      // Only the banked balance travels; unsettled elapsed ticks are
      // forfeited (the receiver settles at its own clock). The balance
      // can never exceed the account's own capacity, so the export is a
      // legitimate §3.4 bank wherever it lands.
      out.push_back(AccountExport{entry.ns_id, entry.key, entry.balance});
      ++stats_for(*shard, entry.ns_id).accounts_extracted;
      drop_cold(*shard, entry);
      return true;
    });
  }
  return out;
}

bool AccountTable::install_account(NamespaceId ns, std::uint64_t key,
                                   Tokens balance) {
  std::shared_ptr<const Namespace> nsp;
  {
    std::shared_lock lock(ns_mu_);
    auto it = namespaces_.find(ns);
    if (it == namespaces_.end()) return false;  // unknown here: forfeit
    nsp = it->second;
  }
  const std::uint64_t hash = hash_key(ns, key);
  Shard& shard = shard_of_hash(hash);
  ShardGuard lock(*this, shard);
  while (nsp->retired.load(std::memory_order_acquire)) nsp = resolve(ns);
  if (find(shard, ns, key, hash) != nullptr) return false;  // never duplicate
  Entry& entry = create(shard, *nsp, key, hash,
                        std::clamp<Tokens>(balance, 0, nsp->capacity),
                        clock_.now_us());
  mark_repl_dirty(shard, entry);
  ++stats_for(shard, ns).accounts_installed;
  return true;
}

void AccountTable::enable_replication(Tokens headroom) {
  TOKA_CHECK_MSG(headroom >= 0,
                 "replication headroom must be non-negative, got " << headroom);
  repl_headroom_.store(headroom, std::memory_order_relaxed);
  repl_enabled_.store(true, std::memory_order_release);
}

void AccountTable::mark_repl_dirty(Shard& shard, Entry& entry) {
  if (!repl_enabled_.load(std::memory_order_relaxed) ||
      (entry.flags & kReplDirty) != 0)
    return;
  entry.flags |= kReplDirty;
  shard.repl_dirty.push_back(AccountKey{entry.ns_id, entry.key});
}

std::size_t AccountTable::drain_replica_dirty(
    std::size_t shard_idx, std::uint64_t seq, std::uint64_t acked_seq,
    std::vector<ReplicaDeltaExport>& out) {
  TOKA_CHECK_MSG(shard_idx < shards_.size(),
                 "shard index " << shard_idx << " out of range");
  Shard& shard = *shards_[shard_idx];
  ShardGuard lock(*this, shard);
  std::size_t appended = 0;
  for (const AccountKey& k : shard.repl_dirty) {
    Entry* found = find(shard, k.ns, k.key, hash_key(k.ns, k.key));
    if (found == nullptr) continue;  // evicted or extracted since
    Entry& entry = *found;
    entry.flags &= static_cast<std::uint8_t>(~kReplDirty);
    // Gate collapse: once the last sent floor is acked, the follower's
    // installable floor is exactly that value — every older (possibly
    // higher) floor has been superseded on an ordered stream — so the
    // gate drops to it and the headroom above it becomes spendable again.
    if (entry.repl_floor_seq != 0 && entry.repl_floor_seq <= acked_seq)
      entry.repl_gate = entry.repl_sent_floor;
    const Tokens configured = repl_headroom_.load(std::memory_order_relaxed);
    const Tokens h =
        configured > 0 ? configured : (entry.ns->capacity + 1) / 2;
    const Tokens floor = std::max<Tokens>(entry.balance - h, 0);
    entry.repl_sent_floor = floor;
    entry.repl_floor_seq = seq;
    entry.repl_gate = std::max(entry.repl_gate, floor);
    out.push_back(ReplicaDeltaExport{k.ns, k.key, entry.balance, floor});
    ++appended;
  }
  shard.repl_dirty.clear();
  return appended;
}

std::size_t AccountTable::account_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    ShardGuard lock(*this, *shard);
    total += shard->accounts.size();
  }
  return total;
}

std::vector<AccountTable::HotKey> AccountTable::hot_keys(std::size_t n) const {
  // Merge the per-shard sketches by folded id (an id lives in exactly one
  // shard, so this is a concatenation, not a sum).
  std::vector<HotKey> all;
  for (const auto& shard : shards_) {
    ShardGuard lock(*this, *shard);
    for (const obs::SpaceSaving::HeavyHitter& h : shard->hot.top())
      all.push_back(HotKey{h.item, h.count});
  }
  std::sort(all.begin(), all.end(),
            [](const HotKey& a, const HotKey& b) { return a.count > b.count; });
  if (all.size() > n) all.resize(n);
  return all;
}

void TableStats::merge(const TableStats& other) {
  accounts += other.accounts;
  accounts_created += other.accounts_created;
  accounts_evicted += other.accounts_evicted;
  acquires += other.acquires;
  tokens_requested += other.tokens_requested;
  tokens_granted += other.tokens_granted;
  refunds += other.refunds;
  tokens_refunded += other.tokens_refunded;
  tokens_refund_dropped += other.tokens_refund_dropped;
  refunds_dropped += other.refunds_dropped;
  queries += other.queries;
  proactive_dropped += other.proactive_dropped;
  ticks_forfeited += other.ticks_forfeited;
  accounts_extracted += other.accounts_extracted;
  accounts_installed += other.accounts_installed;
  watchdog_checks += other.watchdog_checks;
  watchdog_violations += other.watchdog_violations;
}

TableStats AccountTable::stats() const {
  TableStats out;
  for (const auto& shard : shards_) {
    ShardGuard lock(*this, *shard);
    for (const auto& [ns, stats] : shard->stats) out.merge(stats);
    out.accounts += shard->accounts.size();
  }
  return out;
}

TableStats AccountTable::stats(NamespaceId ns) const {
  TableStats out;
  for (const auto& shard : shards_) {
    ShardGuard lock(*this, *shard);
    auto it = shard->stats.find(ns);
    if (it != shard->stats.end()) out.merge(it->second);
    shard->accounts.for_each([&](const Entry& entry) {
      if (entry.ns_id == ns) ++out.accounts;
    });
  }
  return out;
}

std::optional<std::string> AccountTable::audit_violation() const {
  for (const auto& shard : shards_) {
    ShardGuard lock(*this, *shard);
    std::optional<std::string> violation;
    shard->cold.for_each([&](const Cold& cold) {
      if (violation || !cold.auditor) return;
      if (auto v = cold.auditor->first_violation()) {
        std::ostringstream os;
        os << "ns=" << cold.ns_id << " key=" << cold.key << ": "
           << v->describe();
        violation = os.str();
      }
    });
    if (violation) return violation;
  }
  return std::nullopt;
}

ClockDriver::ClockDriver(AccountTable& table, TimeUs resolution_us)
    : table_(&table), resolution_us_(resolution_us) {
  TOKA_CHECK_MSG(resolution_us > 0,
                 "clock resolution must be positive, got " << resolution_us);
}

ClockDriver::~ClockDriver() { stop(); }

void ClockDriver::start() {
  std::lock_guard lock(mu_);
  TOKA_CHECK_MSG(!running_, "clock driver already started");
  running_ = true;
  stop_requested_ = false;
  thread_ = std::thread([this] { loop(); });
}

void ClockDriver::stop() {
  {
    std::lock_guard lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard lock(mu_);
  running_ = false;
}

void ClockDriver::loop() {
  const auto epoch = std::chrono::steady_clock::now();
  TimeUs next_evict = 0;
  std::unique_lock lock(mu_);
  while (!stop_requested_) {
    cv_.wait_for(lock, std::chrono::microseconds(resolution_us_),
                 [this] { return stop_requested_; });
    if (stop_requested_) return;
    const TimeUs elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                               std::chrono::steady_clock::now() - epoch)
                               .count();
    table_->clock().advance_to(elapsed);
    // The min TTL is re-read every tick: namespaces created at runtime with
    // a TTL start getting sweeps without a driver restart. In
    // exclusive_shards mode the sweep is the shard owners' job (the
    // ShardEngine workers evict their own shards) — a driver sweep here
    // would race them, so the driver only advances the clock.
    if (table_->config().exclusive_shards) continue;
    const TimeUs ttl = table_->min_idle_ttl_us();
    if (ttl > 0 && elapsed >= next_evict) {
      lock.unlock();  // sweeps take shard locks; don't hold ours across them
      table_->evict_idle();
      lock.lock();
      next_evict = elapsed + std::max(ttl / 4, resolution_us_);
    }
  }
}

}  // namespace toka::service
