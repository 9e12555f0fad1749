// Replica identity (Section IV-A.1 of the paper).
//
// Two packets are replicas of one looped packet when their headers are
// identical except for the TTL and IP header checksum, and their payloads
// are identical. With 40-byte captures, "headers and payload" is exactly the
// captured bytes with TTL and checksum masked out: the IP identification
// field separates distinct packets of a flow, and the transport checksum
// stands in for payload identity.
//
// The key therefore stores the captured bytes with the two fields zeroed and
// compares them exactly (the hash only buckets; equality is byte-precise, so
// there are no false merges from hash collisions).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "net/trace.h"

namespace rloop::core {

struct ReplicaKey {
  std::array<std::byte, net::kSnapLen> normalized{};
  std::uint8_t len = 0;
  std::uint64_t hash = 0;

  bool operator==(const ReplicaKey& other) const {
    return len == other.len && hash == other.hash &&
           normalized == other.normalized;
  }
};

// Builds the key from captured bytes (which must start at the IP header).
// The TTL byte (offset 8) and header checksum (offsets 10-11) are zeroed;
// everything else — including IP ID, ports, sequence numbers and transport
// checksum — participates in identity.
ReplicaKey make_replica_key(std::span<const std::byte> captured);

// Same key, but with the hash supplied by the caller (it must equal
// replica_key_hash(captured)). Skips the FNV pass — every RecordStore row
// already carries the hash, so the offline detector's key construction is
// a masked copy only.
ReplicaKey make_replica_key(std::span<const std::byte> captured,
                            std::uint64_t precomputed_hash);

// The hash make_replica_key(captured) computes, without materializing the
// normalized copy: RecordStore::fill_row stores it per record, and the
// parallel pipeline assigns shards from it.
std::uint64_t replica_key_hash(std::span<const std::byte> captured);

struct ReplicaKeyHash {
  std::size_t operator()(const ReplicaKey& k) const noexcept {
    return static_cast<std::size_t>(k.hash);
  }
};

}  // namespace rloop::core
