#include "core/replica_key.h"

#include <algorithm>

namespace rloop::core {

std::uint64_t replica_key_hash(std::span<const std::byte> captured) {
  const auto len = std::min(captured.size(), net::kSnapLen);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (std::size_t i = 0; i < len; ++i) {
    // Same masking as make_replica_key: TTL (8) and checksum (10-11) zeroed.
    const auto b = (i == 8 || i == 10 || i == 11) ? std::byte{0} : captured[i];
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

ReplicaKey make_replica_key(std::span<const std::byte> captured) {
  return make_replica_key(captured, replica_key_hash(captured));
}

ReplicaKey make_replica_key(std::span<const std::byte> captured,
                            std::uint64_t precomputed_hash) {
  ReplicaKey key;
  key.len = static_cast<std::uint8_t>(std::min(captured.size(), net::kSnapLen));
  std::copy_n(captured.begin(), key.len, key.normalized.begin());
  if (key.len > 8) key.normalized[8] = std::byte{0};    // TTL
  if (key.len > 10) key.normalized[10] = std::byte{0};  // checksum hi
  if (key.len > 11) key.normalized[11] = std::byte{0};  // checksum lo
  key.hash = precomputed_hash;
  return key;
}

}  // namespace rloop::core
