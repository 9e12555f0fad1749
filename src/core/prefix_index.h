// Per-/24 time index of non-looped packets.
//
// Both validation (step 2) and merging (step 3) need the same exact query:
// "was any packet to this destination /24 observed in [from, to] that is NOT
// part of a replica stream?" — because a routing loop for a prefix must
// affect *all* packets to that prefix while it lasts.
//
// Layout: one flat array of (packed prefix, timestamp) pairs, sorted once at
// build by (prefix, timestamp), then queried by binary search. Records
// arrive in time order, so sorting by the prefix key alone already yields
// per-prefix time order; the (key, ts) comparator just makes that explicit.
// Compared to the hash-map-of-vectors this replaces, the build is one
// append-only pass plus one sort (no per-prefix node allocation or
// rehashing), and a query is a single lower_bound over contiguous memory.
// The key is net::Prefix::packed() — the same packing std::hash<Prefix>
// and shard_of_prefix use.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/record.h"
#include "core/record_store.h"
#include "net/prefix.h"
#include "net/time.h"

namespace rloop::core {

class NonLoopedIndex {
 public:
  // An empty index that answers "no" to every query; fill it with rebuild().
  // The pipeline workspace keeps one default-constructed index per shard
  // and rebuilds it every run, reusing entry and radix-scratch capacity.
  NonLoopedIndex() = default;

  // `is_member[i]` marks record i as belonging to some replica stream.
  NonLoopedIndex(const std::vector<ParsedRecord>& records,
                 const std::vector<bool>& is_member);

  // Columnized equivalent: same index, built from the SoA store's dst24 /
  // ts / ok columns (no ParsedRecord traversal).
  NonLoopedIndex(const RecordStore& store, const std::vector<bool>& is_member);

  // In-place equivalent of the store constructor: identical entries and
  // order, but the entry vector and the radix-sort scratch keep their
  // capacity from the previous build, so a warm rebuild allocates nothing.
  void rebuild(const RecordStore& store, const std::vector<bool>& is_member);

  // As above, restricted to records whose dst24 lands in `shard` of
  // `num_shards` (core::shard_of_prefix). The sharded validator and merger
  // only ever query a stream's own prefix, so the shard that owns the prefix
  // answers exactly as the global index would.
  void rebuild(const RecordStore& store, const std::vector<bool>& is_member,
               unsigned shard, unsigned num_shards);

  // Any non-looped packet to `prefix24` with timestamp in [from, to]?
  bool any_in(const net::Prefix& prefix24, net::TimeNs from,
              net::TimeNs to) const;

  // Timestamp of the earliest such packet, for decision-journal evidence
  // ("which packet refuted the loop?"). nullopt when any_in() is false.
  std::optional<net::TimeNs> first_in(const net::Prefix& prefix24,
                                      net::TimeNs from, net::TimeNs to) const;

  // Number of distinct prefixes with at least one non-looped packet.
  std::size_t prefix_count() const;

  std::size_t entry_count() const { return entries_.size(); }

 private:
  struct Entry {
    std::uint64_t key = 0;  // net::Prefix::packed()
    net::TimeNs ts = 0;
  };

  void seal();  // sort by (key, ts) after the build pass

  std::vector<Entry> entries_;
  // Radix-sort scatter target, kept as a member so rebuild() reuses its
  // capacity (seal() ping-pongs entries_ and scratch_ per pass).
  std::vector<Entry> scratch_;
};

}  // namespace rloop::core
