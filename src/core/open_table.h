// The open-stream table both replica engines keep: per replica key, the
// engine's value (the offline detector's chain of open streams, the
// streaming detector's counting entry), with exact stream-timeout expiry.
//
// Slots live in a slab with a free list, indexed by a FlatMap from the key's
// FNV hash to the slot (16 B index slots). A FIFO gets a {slot, ts} record
// whenever a slot's last touch moves; touches come in non-decreasing ts, so
// the FIFO is in touch order, and a popped record retires its slot only if
// the slot is live and was last touched at the record's ts. No pass over
// the table exists.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/replica_key.h"
#include "net/time.h"
#include "util/flat_map.h"

namespace rloop::core {

template <class Value>
class OpenTable {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  std::size_t size() const { return index_.size(); }
  bool live(std::uint32_t s) const { return slab_[s].live; }
  Value& value(std::uint32_t s) { return slab_[s].value; }

  // The live slot holding `key`, or kNone.
  std::uint32_t find(const ReplicaKey& key) {
    const std::uint32_t* s = index_.find_hashed(key.hash, same_key(key));
    return s != nullptr ? *s : kNone;
  }

  // Grows every container so one insert() or touch() cannot allocate. Call
  // it before either (for the strong exception guarantee, before any write).
  void reserve_one() {
    if (free_head_ == kNone && slab_.size() == slab_.capacity()) {
      slab_.reserve(std::max<std::size_t>(64, 2 * slab_.size()));
    }
    if (touch_count_ == touches_.size()) {  // unroll the ring, then grow it
      std::rotate(touches_.begin(), touches_.begin() + touch_head_,
                  touches_.end());
      touch_head_ = 0;
      touches_.resize(std::max<std::size_t>(64, 2 * touches_.size()));
    }
    index_.reserve(index_.size() + 1);
  }

  // Adds `key`, which must be absent, touched at `ts`; returns its slot.
  std::uint32_t insert(const ReplicaKey& key, const Value& value,
                       net::TimeNs ts) {
    std::uint32_t s = free_head_;
    if (s != kNone) {
      free_head_ = slab_[s].next_free;
    } else {
      s = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back();
    }
    std::construct_at(&slab_[s], key, value, ts, kNone, true);  // in place
    index_.emplace_hashed(key.hash, same_key(key), s, s);
    push(s, ts);
    return s;
  }

  // Slot `s` was touched again at `ts`, no earlier than its last touch.
  void touch(std::uint32_t s, net::TimeNs ts) {
    if (slab_[s].touched == ts) return;
    slab_[s].touched = ts;
    push(s, ts);
  }

  // Retires every key last touched more than `timeout` before `now`, oldest
  // first, handing each to retired(key, value) before its slot is freed.
  template <class Fn>
  void expire(net::TimeNs now, net::TimeNs timeout, Fn&& retired) {
    while (touch_count_ > 0 && now - touches_[touch_head_].ts > timeout) {
      retire_oldest(retired);
    }
  }

  // Retires keys, oldest touch first, until at most `target` remain;
  // returns how many.
  std::size_t evict_to(std::size_t target) {
    const std::size_t before = size();
    while (size() > target && touch_count_ > 0) {
      retire_oldest([](const auto&...) {});
    }
    return before - size();
  }

  // Visits every live slot as fn(key, value), in slot order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slab_) {
      if (slot.live) fn(slot.key, slot.value);
    }
  }

  // Empties the table; every container keeps its capacity.
  void clear() {
    slab_.clear();
    free_head_ = kNone;
    index_.clear();
    touch_head_ = 0;
    touch_count_ = 0;
  }

  // After clear() and inserts in any timestamp order (a restored snapshot):
  // puts the FIFO in touch order, ties in insertion order.
  void sort_expiry_order() {
    std::ranges::stable_sort(touches_.begin(), touches_.begin() + touch_count_,
                             {}, &Touch::ts);
  }

 private:
  struct Slot {  // live, or a free-list link
    ReplicaKey key;
    Value value{};
    net::TimeNs touched = 0;
    std::uint32_t next_free = kNone;
    bool live = false;
  };
  struct Touch {  // slot `slot` was touched at `ts`
    std::uint32_t slot = 0;
    net::TimeNs ts = 0;
  };

  auto same_key(const ReplicaKey& key) {
    return [this, &key](std::uint32_t s) { return slab_[s].key == key; };
  }

  void push(std::uint32_t s, net::TimeNs ts) {
    touches_[(touch_head_ + touch_count_++) & (touches_.size() - 1)] = {s, ts};
  }

  // Pops the oldest record and frees its slot if the record is still the
  // slot's last touch. A slot reused by a key touched at the same instant
  // is retired too, which is right: that key's last touch is the record's.
  template <class Fn>
  void retire_oldest(Fn&& retired) {
    const Touch touch = touches_[touch_head_];
    touch_head_ = (touch_head_ + 1) & (touches_.size() - 1);
    --touch_count_;
    Slot& slot = slab_[touch.slot];
    if (!slot.live || slot.touched != touch.ts) return;
    retired(slot.key, slot.value);
    index_.erase_hashed(slot.key.hash,
                        [&](std::uint32_t s) { return s == touch.slot; });
    slot.live = false;
    slot.next_free = free_head_;
    free_head_ = touch.slot;
  }

  std::vector<Slot> slab_;
  std::uint32_t free_head_ = kNone;
  util::FlatMap<std::uint32_t, std::uint32_t> index_;
  std::vector<Touch> touches_;  // a power-of-two ring
  std::size_t touch_head_ = 0;
  std::size_t touch_count_ = 0;
};

}  // namespace rloop::core
