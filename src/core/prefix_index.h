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
// uses.
//
// The store builds are scoped to the streams being judged: validation and
// merging only ever query the /24 of a stream passed in, and a query
// matches its key exactly, so entries for any other prefix are dead weight.
// A small bitset over a multiplicative hash of those prefixes screens the
// records before they are indexed; a prefix that shares a bit with a stream
// prefix is merely indexed too, so every stream-prefix query answers as
// the full index would. On traces where under 1% of the records loop, the
// index (and its sort) shrinks to the streams' own prefixes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/record.h"
#include "core/record_store.h"
#include "core/replica_detector.h"
#include "net/prefix.h"
#include "net/time.h"

namespace rloop::core {

class NonLoopedIndex {
 public:
  // An empty index that answers "no" to every query; fill it with rebuild().
  NonLoopedIndex() = default;

  // The full index over every prefix (the oracle the scoped builds are
  // tested against). `is_member[i]` marks record i as belonging to some
  // replica stream.
  NonLoopedIndex(const std::vector<ParsedRecord>& records,
                 const std::vector<bool>& is_member);

  // Indexes the store's parsed, non-member records whose dst24 is (or
  // shares a scope bit with) the dst24 of a stream in `streams`. For each
  // stream prefix, first_in and any_in answer exactly as the full index
  // does. The entry vector, the radix-sort scratch and the scope bitset
  // keep their capacity across rebuilds, so a warm rebuild allocates
  // nothing.
  void rebuild(const RecordStore& store, const std::vector<bool>& is_member,
               const std::vector<ReplicaStream>& streams);

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
  // rebuild()'s prefix screen, one bit set per in-scope stream prefix; a
  // member so a warm rebuild reuses its capacity.
  std::vector<std::uint64_t> scope_;
};

}  // namespace rloop::core
