// FlatStore, the per-shard account container, against a std::unordered_map
// oracle: lookups across many rehashes, erase-during-iteration visiting
// every live entry exactly once, and the index surviving long
// insert/erase churn with colliding tags.
#include "service/flat_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <unordered_set>

#include "util/rng.hpp"

namespace toka::service {
namespace {

struct Item {
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};

std::uint64_t mix(std::uint64_t key) {
  std::uint64_t state = key;
  return util::splitmix64(state);
}

struct ItemHash {
  std::uint64_t operator()(const Item& item) const { return mix(item.key); }
};

/// Every key shares one tag, so every lookup walks a full probe run and
/// every erase shifts: the worst case for the slot logic.
struct CollidingHash {
  std::uint64_t operator()(const Item& item) const {
    return (std::uint64_t{0xABCD} << 32) | (item.key & 0xFFFF);
  }
};

template <class Hash>
using Store = FlatStore<Item, Hash>;

template <class Hash>
Item* lookup(Store<Hash>& store, std::uint64_t key) {
  const std::uint64_t hash = Hash{}(Item{key, 0});
  const auto i =
      store.find(hash, [&](const Item& item) { return item.key == key; });
  return i == Store<Hash>::kNotFound ? nullptr : &store.at(i);
}

template <class Hash>
void expect_matches(Store<Hash>& store,
                    const std::unordered_map<std::uint64_t, std::uint64_t>& oracle,
                    std::uint64_t key_range) {
  ASSERT_EQ(store.size(), oracle.size());
  for (std::uint64_t key = 0; key < key_range; ++key) {
    const Item* item = lookup(store, key);
    const auto it = oracle.find(key);
    if (it == oracle.end()) {
      EXPECT_EQ(item, nullptr) << "key " << key;
    } else {
      ASSERT_NE(item, nullptr) << "key " << key;
      EXPECT_EQ(item->value, it->second) << "key " << key;
    }
  }
}

TEST(FlatStore, GrowsAcrossRehashesAndKeepsEveryEntry) {
  Store<ItemHash> store;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  constexpr std::uint64_t kKeys = 50'000;
  std::size_t rehashes = 0;
  std::size_t slots = store.slot_count();
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    store.insert(mix(key), Item{key, key * 3});
    oracle.emplace(key, key * 3);
    if (store.slot_count() != slots) {
      ++rehashes;
      slots = store.slot_count();
      // Load stays at or under 3/4 after every growth step.
      EXPECT_LE(store.size() * 4, store.slot_count() * 3);
    }
  }
  EXPECT_GE(rehashes, 10u);  // 16 slots -> 2^17
  expect_matches(store, oracle, kKeys + 1000);
}

TEST(FlatStore, CandidateFindsThePositionWithoutReadingEntries) {
  Store<ItemHash> store;
  for (std::uint64_t key = 0; key < 1000; ++key) store.insert(mix(key), Item{key, 0});
  for (std::uint64_t key = 0; key < 1000; ++key) {
    const auto i = store.candidate(mix(key));
    ASSERT_NE(i, Store<ItemHash>::kNotFound);
    EXPECT_EQ(store.at(i).key, key);  // 32-bit tags: no collision here
  }
  EXPECT_EQ(store.candidate(mix(5000)), Store<ItemHash>::kNotFound);
}

template <class Hash>
void churn_against_oracle(std::uint64_t key_range, int rounds) {
  Store<Hash> store;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<std::uint64_t> key_dist(0, key_range - 1);
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t key = key_dist(rng);
    Item* item = lookup(store, key);
    ASSERT_EQ(item != nullptr, oracle.contains(key));
    if (item == nullptr) {
      store.insert(Hash{}(Item{key, 0}), Item{key, rng()});
      oracle[key] = lookup(store, key)->value;
    } else if (rng() % 3 == 0) {
      item->value = rng();
      oracle[key] = item->value;
    } else {
      const auto i = store.find(Hash{}(Item{key, 0}),
                                [&](const Item& it) { return it.key == key; });
      store.erase(i);
      oracle.erase(key);
    }
  }
  expect_matches(store, oracle, key_range);
}

TEST(FlatStore, InsertEraseChurnMatchesOracle) {
  churn_against_oracle<ItemHash>(4096, 200'000);
}

TEST(FlatStore, InsertEraseChurnWithCollidingTagsMatchesOracle) {
  // One tag for every key: a single probe run covers the whole table, so
  // backward-shift deletion wraps around the slot array constantly.
  churn_against_oracle<CollidingHash>(300, 50'000);
}

/// The sweeps AccountTable runs (evict, extract, purge) are all erase_if.
/// Each live entry must be offered exactly once, whatever is erased
/// around it, and the survivors must stay findable.
void erase_if_visits_each_once(std::uint64_t modulus) {
  Store<ItemHash> store;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  constexpr std::uint64_t kKeys = 20'000;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    store.insert(mix(key), Item{key, key});
    oracle.emplace(key, key);
  }
  // Drop a scattered quarter first, so the array order is shuffled by
  // swap-removes before the sweep under test.
  for (std::uint64_t key = 0; key < kKeys; key += 4) {
    store.erase(store.find(mix(key), [&](const Item& it) { return it.key == key; }));
    oracle.erase(key);
  }
  std::unordered_set<std::uint64_t> visited;
  std::size_t expected_erased = 0;
  const std::size_t erased = store.erase_if([&](const Item& item) {
    EXPECT_TRUE(visited.insert(item.key).second) << "visited twice: " << item.key;
    if (item.key % modulus != 0) return false;
    ++expected_erased;
    oracle.erase(item.key);
    return true;
  });
  EXPECT_EQ(erased, expected_erased);
  EXPECT_EQ(visited.size(), kKeys - kKeys / 4);  // every live entry, once
  expect_matches(store, oracle, kKeys);
}

TEST(FlatStore, EraseIfVisitsEveryLiveEntryExactlyOnce) {
  erase_if_visits_each_once(3);  // evict-like: a scattered subset
}

TEST(FlatStore, EraseIfEverythingEmptiesTheStore) {
  erase_if_visits_each_once(1);  // purge-like: the whole namespace
}

TEST(FlatStore, EraseIfNothingKeepsTheStore) {
  erase_if_visits_each_once(1u << 30);  // a sweep that matches no entry
}

TEST(FlatStore, StoreIsReusableAfterEmptying) {
  Store<ItemHash> store;
  for (std::uint64_t key = 0; key < 100; ++key) store.insert(mix(key), Item{key, 1});
  EXPECT_EQ(store.erase_if([](const Item&) { return true; }), 100u);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(lookup(store, 5), nullptr);
  store.insert(mix(5), Item{5, 2});
  ASSERT_NE(lookup(store, 5), nullptr);
  EXPECT_EQ(lookup(store, 5)->value, 2u);
}

}  // namespace
}  // namespace toka::service
