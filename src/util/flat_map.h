// Cache-friendly open-addressing hash map for the detection hot path.
//
// std::unordered_map allocates one heap node per entry and chases a pointer
// per probe; at 10^8-10^9 packets per trace those constant factors dominate
// the detector's runtime. FlatMap stores entries inline in one contiguous
// slot array:
//
//  - robin-hood linear probing over a power-of-two slot count — a lookup is
//    a handful of sequential cache lines, and probe sequences stay short
//    because rich entries are displaced in favor of poor ones;
//  - tombstone-free backward-shift erase — deletions compact the probe
//    chain in place, so load never degrades over time the way tombstone
//    schemes do;
//  - the 64-bit hash is stored per slot, so probing compares one integer
//    before touching the key, rehashing never re-hashes keys, and erase can
//    recompute home positions without calling Hash;
//  - precomputed-hash entry points (find_hashed / emplace_hashed /
//    erase_hashed) let callers that already computed the hash — the sharded
//    detector hashes every record once for shard assignment — skip the Hash
//    call entirely and compare keys through an arbitrary predicate, which
//    also enables heterogeneous lookup without materializing a Key.
//
// Invariants (checked by tests/test_flat_map.cc against std::unordered_map):
//  - slot count is a power of two; load factor is kept <= 7/8;
//  - for every occupied slot, dist = (slot - home) mod capacity + 1 fits a
//    uint8 (inserts that would exceed it force a grow);
//  - along any probe chain, stored dist values are non-decreasing-compatible
//    with robin hood order, so lookups may stop at the first slot whose dist
//    is smaller than the probe's.
//
// The map requires Key and T to be default-constructible and movable.
// Erased slots are reset to default-constructed values so resources held by
// keys/values are released eagerly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/failpoint.h"

namespace rloop::util {

namespace detail {
// murmur3 fmix64. Deliberately a DIFFERENT bijection from the splitmix64
// finalizer in core/parallel.h: the sharded detector partitions keys by
// splitmix64(hash) % 2^k, so every key inside one shard shares those low
// bits — masking a re-mixed hash with independent low bits keeps per-shard
// tables uniformly loaded instead of clustering into 1/2^k of the slots.
inline std::uint64_t fmix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}
}  // namespace detail

template <class Key, class T, class Hash = std::hash<Key>,
          class KeyEqual = std::equal_to<Key>>
class FlatMap {
 public:
  FlatMap() = default;
  explicit FlatMap(std::size_t expected_entries) { reserve(expected_entries); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t bucket_count() const { return slots_.size(); }

  // --- lookup ---------------------------------------------------------------

  T* find(const Key& key) {
    return find_hashed(hash_of(key),
                       [&](const Key& k) { return eq_(k, key); });
  }
  const T* find(const Key& key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  // `hash` must equal Hash{}(key) for the key the predicate accepts. The
  // predicate sees candidate keys whose stored hash matches `hash`.
  template <class Pred>
  T* find_hashed(std::uint64_t hash, Pred&& matches) {
    if (size_ == 0) return nullptr;
    std::size_t i = home(hash);
    std::uint8_t d = 1;
    for (;;) {
      const std::uint8_t slot_d = dist_[i];
      if (slot_d == 0 || slot_d < d) return nullptr;  // robin-hood early out
      if (slots_[i].hash == hash && matches(slots_[i].key)) {
        return &slots_[i].value;
      }
      i = (i + 1) & mask_;
      ++d;
    }
  }

  // --- insert ---------------------------------------------------------------

  // Returns {pointer to value, true} when inserted, {existing, false} when
  // the key was already present (value untouched).
  std::pair<T*, bool> emplace(Key key, T value = T{}) {
    const std::uint64_t h = hash_of(key);
    return emplace_hashed(
        h, [&](const Key& k) { return eq_(k, key); }, std::move(key),
        std::move(value));
  }

  T& operator[](const Key& key) { return *emplace(key).first; }

  // Precomputed-hash insert: `hash` must equal Hash{}(key).
  template <class Pred>
  std::pair<T*, bool> emplace_hashed(std::uint64_t hash, Pred&& matches,
                                     Key key, T value = T{}) {
    if (T* existing = find_hashed(hash, matches)) return {existing, false};
    reserve(size_ + 1);
    return {insert_new(hash, std::move(key), std::move(value)), true};
  }

  // --- erase ----------------------------------------------------------------

  bool erase(const Key& key) {
    return erase_hashed(hash_of(key),
                        [&](const Key& k) { return eq_(k, key); });
  }

  template <class Pred>
  bool erase_hashed(std::uint64_t hash, Pred&& matches) {
    if (size_ == 0) return false;
    std::size_t i = home(hash);
    std::uint8_t d = 1;
    for (;;) {
      const std::uint8_t slot_d = dist_[i];
      if (slot_d == 0 || slot_d < d) return false;
      if (slots_[i].hash == hash && matches(slots_[i].key)) {
        erase_at(i);
        return true;
      }
      i = (i + 1) & mask_;
      ++d;
    }
  }

  // Visits every entry; `pred(key, value)` returning true erases the entry.
  // Backward-shift compaction can move a not-yet-visited entry into an
  // already-visited slot near the table's wrap point, in which case that
  // entry is visited twice — `pred` must therefore be idempotent (same
  // answer and no repeated side effects for an entry it already declined).
  // Returns the number of entries erased.
  template <class Pred>
  std::size_t erase_if(Pred&& pred) {
    if (size_ == 0) return 0;
    std::size_t erased = 0;
    for (std::size_t i = 0; i < slots_.size();) {
      if (dist_[i] != 0 && pred(slots_[i].key, slots_[i].value)) {
        erase_at(i);  // pulls the next chain entry into slot i: do not advance
        ++erased;
      } else {
        ++i;
      }
    }
    return erased;
  }

  // Visits every entry as fn(const Key&, T&). Do not insert or erase inside.
  template <class Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (dist_[i] != 0) fn(slots_[i].key, slots_[i].value);
    }
  }
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (dist_[i] != 0) fn(slots_[i].key, slots_[i].value);
    }
  }

  void clear() {
    std::fill(dist_.begin(), dist_.end(), std::uint8_t{0});
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

  // Grows the table so `entries` fit within the 7/8 load bound.
  void reserve(std::size_t entries) {
    if (slots_.empty() || entries * 8 > slots_.size() * 7) {
      if (RLOOP_FAILPOINT("flat_map.grow")) throw std::bad_alloc();
      rehash_for(entries);
    }
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    Key key{};
    T value{};
  };

  static constexpr std::size_t kMinCapacity = 16;
  // Stored probe distance is (slot - home) mod capacity, offset by one so 0
  // means "empty"; it must fit a uint8.
  static constexpr std::uint8_t kMaxDist = 0xff;

  std::uint64_t hash_of(const Key& key) const {
    return static_cast<std::uint64_t>(hasher_(key));
  }
  std::size_t home(std::uint64_t hash) const {
    return static_cast<std::size_t>(detail::fmix64(hash)) & mask_;
  }

  void rehash_for(std::size_t entries) {
    std::size_t cap = kMinCapacity;
    while (entries * 8 > cap * 7) cap <<= 1;
    if (cap <= slots_.size()) cap = slots_.size() << 1;
    rehash(cap);
  }

  // Allocates the new arrays before touching the old ones, so a
  // std::bad_alloc leaves the map unchanged.
  void rehash(std::size_t new_capacity) {
    std::vector<Slot> new_slots(new_capacity);
    std::vector<std::uint8_t> new_dist(new_capacity, 0);
    std::vector<Slot> old_slots = std::exchange(slots_, std::move(new_slots));
    std::vector<std::uint8_t> old_dist =
        std::exchange(dist_, std::move(new_dist));
    mask_ = new_capacity - 1;
    size_ = 0;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (old_dist[i] != 0) {
        insert_new(old_slots[i].hash, std::move(old_slots[i].key),
                   std::move(old_slots[i].value));
      }
    }
  }

  // Robin-hood insert of a key known to be absent. Table must have room.
  // At <= 7/8 load with a 64-bit hash, robin-hood probe distances stay in
  // the tens even for tens of millions of entries; a distance that would
  // overflow the uint8 dist field requires > kMaxDist entries sharing one
  // hash (a catastrophically degenerate Hash), which growth cannot fix —
  // throw instead of looping.
  T* insert_new(std::uint64_t hash, Key key, T value) {
    Slot incoming{hash, std::move(key), std::move(value)};
    std::size_t i = home(hash);
    std::uint8_t d = 1;
    T* result = nullptr;
    for (;;) {
      if (dist_[i] == 0) {
        slots_[i] = std::move(incoming);
        dist_[i] = d;
        ++size_;
        return result ? result : &slots_[i].value;
      }
      if (dist_[i] < d) {
        // Rich entry: displace it, keep probing for its new position. Once
        // the original entry lands in a slot it never moves again during
        // this insert (displaced entries only probe forward into emptier
        // territory), so `result` stays valid.
        std::swap(incoming, slots_[i]);
        std::swap(d, dist_[i]);
        if (!result) result = &slots_[i].value;
      }
      if (d == kMaxDist) {
        throw std::length_error(
            "FlatMap: probe distance overflow (degenerate hash function)");
      }
      i = (i + 1) & mask_;
      ++d;
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> dist_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  [[no_unique_address]] Hash hasher_{};
  [[no_unique_address]] KeyEqual eq_{};

  void erase_at(std::size_t i) {
    std::size_t j = (i + 1) & mask_;
    while (dist_[j] > 1) {
      slots_[i] = std::move(slots_[j]);
      dist_[i] = static_cast<std::uint8_t>(dist_[j] - 1);
      i = j;
      j = (j + 1) & mask_;
    }
    slots_[i] = Slot{};
    dist_[i] = 0;
    --size_;
  }
};

}  // namespace rloop::util
