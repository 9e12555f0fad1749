// Sharding configuration and the shard-assignment hash for the parallel
// detection pipeline.
//
// The pipeline parallelizes step 1 by partitioning its keyed state, never
// by splitting a key's records across workers: it shards by
// hash(ReplicaKey), so all observations of one normalized header land in
// one shard, in trace order, and every per-shard stream is exactly the
// stream the serial detector builds. A deterministic total-order merge of
// the shards' streams (documented at the call site) makes the output
// bit-identical to the serial path for every (num_threads, shard_bits) —
// tests/test_parallel_pipeline.cc proves it. Steps 2-3 (validate, merge)
// are per-/24 range queries over the few streams step 1 emits; both paths
// run them serially, through the same calls.
#pragma once

#include <cstdint>

namespace rloop::core {

struct ParallelConfig {
  // Pool bodies (threads); <= 1 selects the serial path (no pool is
  // created).
  unsigned num_threads = 1;
  // log2 of the shard count. Ownership is static — shard s belongs to body
  // s % num_threads — so shards beyond the thread count buy only a finer
  // balance of records across bodies, not work stealing; with fewer shards
  // than threads, the bodies past the last shard only parse. 2^4 = 16 is
  // plenty for the core counts this targets. Clamped to [0, 10].
  unsigned shard_bits = 4;

  bool enabled() const { return num_threads > 1; }
  unsigned num_shards() const {
    const unsigned bits = shard_bits > 10 ? 10 : shard_bits;
    return 1u << bits;
  }
};

// splitmix64 finalizer. Replica-key hashes (FNV output) have structure in
// their low bits, so shard selection must mix before masking.
inline std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace rloop::core
