// Sharding configuration and shard-assignment hashes for the parallel
// detection pipeline.
//
// The pipeline parallelizes by partitioning its keyed state, never by
// splitting a key's records across workers:
//  - step 1 shards by hash(ReplicaKey): all observations of one normalized
//    header land in one shard, in trace order, so every per-shard stream is
//    exactly the stream the serial detector builds;
//  - steps 2-3 shard by destination /24 prefix: validation and merging only
//    ever query the non-looped index for the stream's own prefix, so a
//    per-shard index restricted to that shard's prefixes answers identically.
// A deterministic total-order merge after each stage (documented at the call
// sites) makes the output bit-identical to the serial path for every
// (num_threads, shard_bits) — tests/test_parallel_pipeline.cc proves it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/prefix.h"
#include "telemetry/registry.h"

namespace rloop::core {

struct ParallelConfig {
  // Worker threads; <= 1 selects the serial path (no pool is created).
  unsigned num_threads = 1;
  // log2 of the shard count. More shards than threads lets fast shards
  // finish early and slow ones overlap; 2^4 = 16 is plenty for the core
  // counts this targets. Clamped to [0, 10].
  unsigned shard_bits = 4;

  bool enabled() const { return num_threads > 1; }
  unsigned num_shards() const {
    const unsigned bits = shard_bits > 10 ? 10 : shard_bits;
    return 1u << bits;
  }
};

// splitmix64 finalizer. The raw inputs below have structure in their low
// bits (FNV output, prefix length always 24), so shard selection must mix
// before masking.
inline std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Shard for a replica-key hash (ReplicaKey::hash / replica_key_hash()).
inline unsigned shard_of_key_hash(std::uint64_t hash, unsigned num_shards) {
  return static_cast<unsigned>(mix64(hash) % num_shards);
}

// Shard for a destination /24 prefix (validation + merge partitioning).
inline unsigned shard_of_prefix(const net::Prefix& prefix,
                                unsigned num_shards) {
  const auto packed =
      (static_cast<std::uint64_t>(prefix.addr.value) << 8) | prefix.len;
  return static_cast<unsigned>(mix64(packed) % num_shards);
}

// Resolves one rloop_pipeline_shard_latency_ns{stage, shard} histogram per
// shard into `out` (all null without a registry). The sharded detect,
// validate and merge stages each time their shards through this, so the
// family is named once.
inline void shard_latency_histograms(telemetry::Registry* registry,
                                     const char* stage, unsigned num_shards,
                                     std::vector<telemetry::Histogram*>& out) {
  out.assign(num_shards, nullptr);
  for (unsigned s = 0; s < num_shards; ++s) {
    out[s] = telemetry::get_histogram(
        registry, "rloop_pipeline_shard_latency_ns",
        telemetry::latency_bounds_ns(),
        {{"stage", stage}, {"shard", std::to_string(s)}},
        "Wall-clock latency of one pipeline shard per sharded call");
  }
}

}  // namespace rloop::core
