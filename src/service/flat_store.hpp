// The per-shard account container behind service::AccountTable: a dense
// entry array indexed by an open-addressing table of 8-byte slots.
//
// Entries are packed densely — positions 0..size()-1 — and swap-removed on
// erase (the last entry moves into the hole), so a shard's accounts are a
// flat array a sweep streams through. The array is a list of fixed blocks
// of kBlockSize entries (the first block grows by doubling up to that, so
// small shards stay small): growth never moves an entry, and a store of
// millions of entries never holds two copies of itself or strands more
// than one block of capacity. The index maps a 64-bit hash to a position.
// Each slot packs the hash's high 32 bits (the *tag*) with the position:
//
//     slot = tag << 32 | position          empty slot = all ones
//
// A key's home slot is `tag & mask`, so the home of any occupied slot can be
// recomputed from the slot alone. Growth (rehash into twice the slots) and
// deletion (backward shift: later members of the probe run move up into the
// hole, so no tombstones ever accumulate) therefore never read an entry.
// Lookups probe linearly from the home slot and dereference an entry only
// on a tag match. Capacity is a power of two, at least kMinSlots, doubled
// before an insert would push the load past 3/4.
//
// The class is not thread-safe: the owner serializes every member except
// prefetch_slot(), which only reads an atomically published copy of the
// slot base and mask and issues a prefetch hint — it never dereferences, so
// racing a concurrent rehash at worst wastes the hint.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace toka::service {

/// `Entry` must be default-constructible and movable; a default entry owns
/// nothing. `HashOf` is a stateless functor giving the 64-bit hash an entry
/// was inserted under; it is called only by erase.
template <class Entry, class HashOf>
class FlatStore {
 public:
  using Index = std::uint32_t;
  static constexpr Index kNotFound = ~Index{0};
  static constexpr std::size_t kMinSlots = 16;

  FlatStore() { rehash(kMinSlots); }

  FlatStore(const FlatStore&) = delete;
  FlatStore& operator=(const FlatStore&) = delete;

  std::size_t size() const { return size_; }
  std::size_t slot_count() const { return slots_.size(); }

  /// The entry at position `i` < size(). Positions are stable until an
  /// erase moves the last entry; references until the first block grows.
  Entry& at(Index i) { return blocks_[i >> kBlockShift][i & (kBlockSize - 1)]; }
  const Entry& at(Index i) const {
    return blocks_[i >> kBlockShift][i & (kBlockSize - 1)];
  }

  /// Calls `visit(entry)` for every live entry, in position order.
  template <class Visit>
  void for_each(Visit&& visit) const {
    for (std::size_t i = 0; i < size_; ++i) visit(at(static_cast<Index>(i)));
  }

  /// Prefetches the home slot of `hash`. Safe from any thread, concurrently
  /// with every other member.
  void prefetch_slot(std::uint64_t hash) const {
    const std::uintptr_t base = published_base_.load(std::memory_order_relaxed);
    const std::uint64_t mask = published_mask_.load(std::memory_order_relaxed);
    __builtin_prefetch(reinterpret_cast<const void*>(
        base + (tag_of(hash) & mask) * sizeof(std::uint64_t)));
  }

  /// The position behind the first slot on `hash`'s probe run whose tag
  /// matches, without reading any entry (kNotFound when the run ends
  /// first). Two keys can share a tag, so this is a prefetch target, not a
  /// lookup result.
  Index candidate(std::uint64_t hash) const {
    const std::uint32_t tag = tag_of(hash);
    for (std::uint64_t pos = tag & mask_;; pos = (pos + 1) & mask_) {
      const std::uint64_t slot = slots_[pos];
      if (slot == kEmpty) return kNotFound;
      if (slot_tag(slot) == tag) return slot_index(slot);
    }
  }

  /// Prefetches both cache lines an entry can span.
  void prefetch_entry(Index i) const {
    const char* p = reinterpret_cast<const char*>(&at(i));
    __builtin_prefetch(p);
    __builtin_prefetch(p + sizeof(Entry) - 1);
  }

  /// The position of the entry inserted under `hash` for which
  /// `is_key(entry)` holds, or kNotFound.
  template <class IsKey>
  Index find(std::uint64_t hash, IsKey&& is_key) const {
    const std::uint32_t tag = tag_of(hash);
    for (std::uint64_t pos = tag & mask_;; pos = (pos + 1) & mask_) {
      const std::uint64_t slot = slots_[pos];
      if (slot == kEmpty) return kNotFound;
      if (slot_tag(slot) == tag && is_key(at(slot_index(slot))))
        return slot_index(slot);
    }
  }

  /// Appends `entry` under `hash` and returns its position. The caller
  /// guarantees no entry with the same key is present.
  Index insert(std::uint64_t hash, Entry entry) {
    TOKA_CHECK_MSG(size_ < kNotFound, "flat store is full");
    if ((size_ + 1) * 4 > slots_.size() * 3) rehash(slots_.size() * 2);
    if (size_ == capacity_) grow();
    const auto i = static_cast<Index>(size_++);
    at(i) = std::move(entry);
    std::uint64_t pos = tag_of(hash) & mask_;
    while (slots_[pos] != kEmpty) pos = (pos + 1) & mask_;
    slots_[pos] = make_slot(tag_of(hash), i);
    return i;
  }

  /// Erases entry `i`: its slot is backward-shift deleted and the last
  /// entry moves into position `i`.
  void erase(Index i) {
    remove_slot(slot_pos(HashOf{}(at(i)), i));
    const auto last = static_cast<Index>(size_ - 1);
    if (i != last) {
      const std::uint64_t hash = HashOf{}(at(last));
      slots_[slot_pos(hash, last)] = make_slot(tag_of(hash), i);
      at(i) = std::move(at(last));
    }
    at(last) = Entry{};  // release whatever the erased entry owned
    --size_;
  }

  /// Calls `should_erase(entry)` exactly once per live entry and erases
  /// the entries it returns true for; returns how many were erased. The
  /// predicate may read the entry before it goes, but must not touch the
  /// store.
  template <class Pred>
  std::size_t erase_if(Pred&& should_erase) {
    std::size_t erased = 0;
    for (std::size_t i = 0; i < size_;) {
      if (should_erase(at(static_cast<Index>(i)))) {
        // The last entry, not yet visited, moves into position i.
        erase(static_cast<Index>(i));
        ++erased;
      } else {
        ++i;
      }
    }
    return erased;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kBlockShift = 12;
  static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockShift;

  static std::uint32_t tag_of(std::uint64_t hash) {
    return static_cast<std::uint32_t>(hash >> 32);
  }
  static std::uint64_t make_slot(std::uint32_t tag, Index i) {
    return std::uint64_t{tag} << 32 | i;
  }
  static std::uint32_t slot_tag(std::uint64_t slot) {
    return static_cast<std::uint32_t>(slot >> 32);
  }
  static Index slot_index(std::uint64_t slot) {
    return static_cast<Index>(slot);
  }

  /// The slot holding position `i`, inserted under `hash`.
  std::uint64_t slot_pos(std::uint64_t hash, Index i) const {
    std::uint64_t pos = tag_of(hash) & mask_;
    while (slots_[pos] == kEmpty || slot_index(slots_[pos]) != i)
      pos = (pos + 1) & mask_;
    return pos;
  }

  /// Backward-shift deletion: every later member of the probe run whose
  /// home does not lie cyclically in (hole, member] moves into the hole.
  void remove_slot(std::uint64_t hole) {
    for (std::uint64_t pos = (hole + 1) & mask_; slots_[pos] != kEmpty;
         pos = (pos + 1) & mask_) {
      const std::uint64_t home = slot_tag(slots_[pos]) & mask_;
      const bool stays = hole <= pos ? hole < home && home <= pos
                                     : hole < home || home <= pos;
      if (stays) continue;
      slots_[hole] = slots_[pos];
      hole = pos;
    }
    slots_[hole] = kEmpty;
  }

  /// Adds capacity for one more entry: doubles the first block while it is
  /// smaller than kBlockSize, appends a full block after that.
  void grow() {
    if (capacity_ < kBlockSize) {
      const std::size_t capacity = std::max<std::size_t>(16, 2 * capacity_);
      auto first = std::make_unique<Entry[]>(capacity);
      if (!blocks_.empty()) {
        std::move(blocks_[0].get(), blocks_[0].get() + size_, first.get());
        blocks_[0] = std::move(first);
      } else {
        blocks_.push_back(std::move(first));
      }
      capacity_ = capacity;
    } else {
      blocks_.push_back(std::make_unique<Entry[]>(kBlockSize));
      capacity_ += kBlockSize;
    }
  }

  void rehash(std::size_t slot_count) {
    TOKA_CHECK_MSG(slot_count <= (std::uint64_t{1} << 32),
                   "flat store index past 2^32 slots");
    std::vector<std::uint64_t> old(slot_count, kEmpty);
    old.swap(slots_);
    mask_ = slot_count - 1;
    for (const std::uint64_t slot : old) {
      if (slot == kEmpty) continue;
      std::uint64_t pos = slot_tag(slot) & mask_;
      while (slots_[pos] != kEmpty) pos = (pos + 1) & mask_;
      slots_[pos] = slot;
    }
    published_base_.store(reinterpret_cast<std::uintptr_t>(slots_.data()),
                          std::memory_order_relaxed);
    published_mask_.store(mask_, std::memory_order_relaxed);
  }

  std::vector<std::unique_ptr<Entry[]>> blocks_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  std::vector<std::uint64_t> slots_;
  std::uint64_t mask_ = 0;
  // Read without the owner's serialization, by prefetch_slot() only.
  std::atomic<std::uintptr_t> published_base_{0};
  std::atomic<std::uint64_t> published_mask_{0};
};

}  // namespace toka::service
