// Differential proof for the hot-path memory overhaul.
//
// The flat-table/arena detector (ReplicaDetector::detect), the SoA
// RecordStore, and the flat NonLoopedIndex are all optimizations with an
// exact-behavior contract: field-identical output to the straightforward
// structures they replaced. detect_reference() keeps the pre-overhaul engine
// verbatim as the oracle; these tests diff it against the serial detector
// and the staged parallel pipeline on synthetic and fuzzed traces, across
// thread and shard counts, and pin the allocation win the arena + flat table
// exist for.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/loop_detector.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/prefix_index.h"
#include "core/record.h"
#include "core/record_store.h"
#include "core/replica_detector.h"
#include "core/replica_key.h"
#include "net/packet.h"
#include "net/trace.h"
#include "result_equality.h"
#include "trace_builder.h"
#include "util/random.h"

namespace {
// Global allocation counter for the arena/flat-map win assertion. Relaxed
// atomics: the counted sections below run single-threaded.
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

// The nothrow forms must be replaced too: libstdc++'s std::get_temporary_buffer
// (stable_sort's merge buffer) allocates with nothrow new but releases through
// plain operator delete — leaving these to the runtime while overriding the
// plain forms above is an alloc/dealloc mismatch under ASan.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace rloop::core {
namespace {

using rloop::testing::TraceBuilder;
using rloop::testing::expect_equal_stream_vectors;

// A trace mixing every branch of the per-key state machine: clean loops,
// equal-TTL duplicates, TTL increases, timeout splits, malformed records,
// many keys colliding on the same destination /24.
net::Trace& synthetic_trace(TraceBuilder& builder) {
  net::TimeNs t = 0;
  // Clean replica streams of varying length and hop count.
  builder.replica_stream(t, net::Ipv4Addr(10, 1, 1, 1), 200, 7, 6, 2,
                         50 * net::kMillisecond);
  builder.replica_stream(t + net::kSecond, net::Ipv4Addr(10, 1, 1, 9), 150,
                         8, 12, 3, 20 * net::kMillisecond);
  // Same key re-observed after a quiet gap past stream_timeout: two streams.
  builder.replica_stream(t, net::Ipv4Addr(10, 2, 2, 2), 120, 21, 4, 2,
                         30 * net::kMillisecond);
  builder.replica_stream(t + 30 * net::kSecond, net::Ipv4Addr(10, 2, 2, 2),
                         120, 21, 4, 2, 30 * net::kMillisecond);
  // Equal-TTL duplicates inside a loop (link-layer copies).
  builder.packet(t, net::Ipv4Addr(10, 3, 3, 3), 90, 5);
  builder.packet(t + net::kMillisecond, net::Ipv4Addr(10, 3, 3, 3), 90, 5);
  builder.packet(t + 2 * net::kMillisecond, net::Ipv4Addr(10, 3, 3, 3), 88, 5);
  builder.packet(t + 3 * net::kMillisecond, net::Ipv4Addr(10, 3, 3, 3), 86, 5);
  // TTL increase: retransmission reusing the IP-ID, must split the stream.
  builder.packet(t, net::Ipv4Addr(10, 4, 4, 4), 60, 99);
  builder.packet(t + net::kMillisecond, net::Ipv4Addr(10, 4, 4, 4), 58, 99);
  builder.packet(t + 2 * net::kMillisecond, net::Ipv4Addr(10, 4, 4, 4), 64,
                 99);
  builder.packet(t + 3 * net::kMillisecond, net::Ipv4Addr(10, 4, 4, 4), 62,
                 99);
  // Background singletons and malformed records.
  for (int i = 0; i < 200; ++i) {
    builder.packet(t + i * net::kMillisecond,
                   net::Ipv4Addr(172, 16, static_cast<std::uint8_t>(i), 1),
                   64, static_cast<std::uint16_t>(1000 + i));
  }
  builder.raw(t + 5 * net::kMillisecond, std::vector<std::byte>(7));
  builder.raw(t + 6 * net::kMillisecond, {});
  return builder.trace();
}

// The fuzz generator from tests/test_fuzz.cc: random mixes of decreases,
// increases, duplicates, and timeout gaps over a pool of destinations.
net::Trace& fuzz_trace(TraceBuilder& builder, std::uint64_t seed) {
  util::Rng rng(seed);
  net::TimeNs t = 0;
  for (int burst = 0; burst < 120; ++burst) {
    const net::Ipv4Addr dst(static_cast<std::uint8_t>(rng.uniform_int(1, 223)),
                            static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                            static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                            10);
    const auto ip_id = static_cast<std::uint16_t>(
        rng.bernoulli(0.3) ? 65533 + rng.uniform_int(0, 5)
                           : rng.uniform_int(0, 65535));
    auto ttl = static_cast<int>(rng.uniform_int(2, 255));
    const int len = static_cast<int>(rng.uniform_int(1, 12));
    for (int i = 0; i < len; ++i) {
      builder.packet(t, dst, static_cast<std::uint8_t>(ttl), ip_id);
      switch (rng.uniform_int(0, 4)) {
        case 0:
          ttl = std::max(2, ttl - static_cast<int>(rng.uniform_int(1, 3)));
          break;
        case 1:
          ttl = std::min(255, ttl + static_cast<int>(rng.uniform_int(1, 64)));
          break;
        case 2:
          break;
        case 3:
          t += 11 * net::kSecond;
          break;
        default:
          ttl = std::max(2, ttl - 1);
          break;
      }
      t += static_cast<net::TimeNs>(rng.uniform_int(1, 2'000'000));
    }
    if (rng.bernoulli(0.1)) {
      builder.raw(t, std::vector<std::byte>(
                         static_cast<std::size_t>(rng.uniform_int(0, 30))));
    }
  }
  return builder.trace();
}

TEST(MemoryLayout, FlatDetectorMatchesReferenceOnSyntheticTrace) {
  TraceBuilder builder;
  const net::Trace& trace = synthetic_trace(builder);
  const auto records = parse_trace(trace);

  const ReplicaDetector detector;
  const auto reference = detector.detect_reference(trace, records);
  const auto flat = detector.detect(trace, records);
  ASSERT_GT(reference.size(), 4u) << "fixture must exercise the detector";
  expect_equal_stream_vectors(reference, flat, "streams");
}

TEST(MemoryLayout, FlatDetectorMatchesReferenceOnFuzzedTraces) {
  for (const std::uint64_t seed : {3u, 17u, 101u, 443u, 1009u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    TraceBuilder builder;
    const net::Trace& trace = fuzz_trace(builder, seed);
    const auto records = parse_trace(trace);

    const ReplicaDetector detector;
    expect_equal_stream_vectors(detector.detect_reference(trace, records),
                                detector.detect(trace, records), "streams");
  }
}

TEST(MemoryLayout, ShardedFlatDetectorMatchesReferenceAcrossShardCounts) {
  for (const std::uint64_t seed : {17u, 101u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    TraceBuilder builder;
    const net::Trace& trace = fuzz_trace(builder, seed);
    const auto records = parse_trace(trace);

    const ReplicaDetector detector;
    const auto reference = detector.detect_reference(trace, records);
    for (const unsigned threads : {2u, 4u, 8u}) {
      for (const unsigned bits : {1u, 4u}) {
        SCOPED_TRACE("num_threads=" + std::to_string(threads) +
                     " shard_bits=" + std::to_string(bits));
        LoopDetectorConfig config;
        config.parallel.num_threads = threads;
        config.parallel.shard_bits = bits;
        expect_equal_stream_vectors(
            reference, detect_loops(trace, config).raw_streams, "streams");
      }
    }
  }
}

TEST(MemoryLayout, RecordStoreColumnsMatchParsedRecords) {
  TraceBuilder builder;
  const net::Trace& trace = synthetic_trace(builder);
  const auto records = parse_trace(trace);
  const auto store = RecordStore::build(trace, records);

  ASSERT_EQ(store.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(store.ok(i), records[i].ok) << i;
    EXPECT_EQ(store.ts(i), records[i].ts) << i;
    if (!records[i].ok) {
      EXPECT_EQ(store.key_hash(i), 0u) << i;
      continue;
    }
    EXPECT_EQ(store.ttl(i), records[i].pkt.ip.ttl) << i;
    EXPECT_EQ(store.dst(i), records[i].pkt.ip.dst) << i;
    EXPECT_TRUE(store.dst24(i) == records[i].dst24) << i;
    EXPECT_EQ(store.dst24_key(i),
              (std::uint64_t{records[i].dst24.addr.value} << 8) | 24u)
        << i;
    EXPECT_EQ(store.key_hash(i), replica_key_hash(trace[i].bytes())) << i;
    EXPECT_EQ(store.bytes(i).size(), trace[i].bytes().size()) << i;
  }
}

// Oracle for the flat NonLoopedIndex: the hash-map-of-vectors layout it
// replaced, rebuilt here in its simplest possible form.
class MapIndexOracle {
 public:
  MapIndexOracle(const std::vector<ParsedRecord>& records,
                 const std::vector<bool>& is_member) {
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (!records[i].ok || is_member[i]) continue;
      by_prefix_[records[i].dst24].push_back(records[i].ts);
    }
  }

  std::optional<net::TimeNs> first_in(const net::Prefix& prefix24,
                                      net::TimeNs from, net::TimeNs to) const {
    const auto it = by_prefix_.find(prefix24);
    if (it == by_prefix_.end()) return std::nullopt;
    const auto& ts = it->second;  // in time order: records arrive sorted
    const auto lo = std::lower_bound(ts.begin(), ts.end(), from);
    if (lo == ts.end() || *lo > to) return std::nullopt;
    return *lo;
  }

  std::size_t prefix_count() const { return by_prefix_.size(); }

 private:
  std::unordered_map<net::Prefix, std::vector<net::TimeNs>> by_prefix_;
};

TEST(MemoryLayout, FlatIndexMatchesHashMapOracle) {
  TraceBuilder builder;
  const net::Trace& trace = fuzz_trace(builder, 57);
  const auto records = parse_trace(trace);

  // Mark a deterministic pseudo-random subset as stream members so both
  // member and non-member records exist for every prefix mix.
  util::Rng rng(58);
  std::vector<bool> member(records.size(), false);
  for (std::size_t i = 0; i < member.size(); ++i) {
    member[i] = rng.bernoulli(0.3);
  }

  const NonLoopedIndex index(records, member);
  const MapIndexOracle oracle(records, member);
  EXPECT_EQ(index.prefix_count(), oracle.prefix_count());

  // Query every record's own prefix around its own timestamp, plus random
  // windows (including empty and inverted ones).
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!records[i].ok) continue;
    const auto& p = records[i].dst24;
    const net::TimeNs ts = records[i].ts;
    for (const auto& [from, to] :
         {std::pair<net::TimeNs, net::TimeNs>{ts, ts},
          {ts - net::kSecond, ts + net::kSecond},
          {ts + 1, ts + net::kSecond},
          {ts, ts - 1}}) {
      const auto got = index.first_in(p, from, to);
      const auto want = oracle.first_in(p, from, to);
      EXPECT_EQ(got, want) << "record " << i;
      EXPECT_EQ(index.any_in(p, from, to), want.has_value()) << "record " << i;
    }
  }
}

TEST(MemoryLayout, ShardedFlatIndexAnswersOwnPrefixLikeGlobal) {
  TraceBuilder builder;
  const net::Trace& trace = fuzz_trace(builder, 91);
  const auto records = parse_trace(trace);
  const std::vector<bool> member(records.size(), false);
  const auto store = RecordStore::build(trace, records);

  const NonLoopedIndex global(records, member);
  const NonLoopedIndex global_store(store, member);
  EXPECT_EQ(global_store.entry_count(), global.entry_count());

  constexpr unsigned kShards = 4;
  std::vector<NonLoopedIndex> shards(kShards);
  for (unsigned s = 0; s < kShards; ++s) {
    shards[s].rebuild(store, member, s, kShards);
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!records[i].ok) continue;
    const auto& p = records[i].dst24;
    const unsigned s = shard_of_prefix(p, kShards);
    const net::TimeNs ts = records[i].ts;
    const auto want = global.first_in(p, ts - net::kSecond, ts + net::kSecond);
    EXPECT_EQ(shards[s].first_in(p, ts - net::kSecond, ts + net::kSecond),
              want)
        << i;
    EXPECT_EQ(global_store.first_in(p, ts - net::kSecond, ts + net::kSecond),
              want)
        << i;
  }
}

TEST(MemoryLayout, FlatEngineAllocatesFarLessThanReference) {
  TraceBuilder builder;
  const net::Trace& trace = fuzz_trace(builder, 201);
  const auto records = parse_trace(trace);
  const auto store = RecordStore::build(trace, records);
  const ReplicaDetector detector;

  // Warm both paths once so one-time setup does not skew the counts.
  (void)detector.detect_reference(trace, records);
  (void)detector.detect(store);

  const auto count = [&](auto&& fn) {
    const auto before = g_alloc_count.load(std::memory_order_relaxed);
    fn();
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };
  const auto ref_allocs =
      count([&] { (void)detector.detect_reference(trace, records); });
  const auto flat_allocs = count([&] { (void)detector.detect(store); });

  // The arena + flat table exist to collapse the per-key node and per-stream
  // vector churn; require at least a 2x reduction so a regression that
  // quietly reintroduces per-record allocation fails here.
  EXPECT_LT(flat_allocs * 2, ref_allocs)
      << "flat=" << flat_allocs << " reference=" << ref_allocs;
  EXPECT_GT(ref_allocs, 100u) << "fixture too small to measure allocation";
}

TEST(MemoryLayout, WarmPipelineAllocatesNoMoreThanSerial) {
  // The staged dataflow's whole point of carrying a workspace: once warm,
  // a parallel run's per-call allocation (pool reused, columns reused, batch
  // rings reused, per-shard arenas rewound in place, validator/merger
  // scratch reused) must not exceed the serial path's — parallelism may not
  // buy its speed with allocator churn. bench_to_json gates the same claim
  // on the big cached trace; this pins it in the fast tier.
  TraceBuilder builder;
  const net::Trace& trace = fuzz_trace(builder, 202);

  LoopDetectorConfig serial_config;
  PipelineWorkspace workspace;
  LoopDetectorConfig parallel_config;
  parallel_config.parallel.num_threads = 4;
  parallel_config.parallel.shard_bits = 2;
  parallel_config.workspace = &workspace;

  // Warm both paths twice: the first parallel run builds the pool and sizes
  // every buffer, the second proves the sizing stuck.
  (void)detect_loops(trace, serial_config);
  (void)detect_loops(trace, parallel_config);
  (void)detect_loops(trace, parallel_config);

  const auto count = [&](auto&& fn) {
    const auto before = g_alloc_count.load(std::memory_order_relaxed);
    fn();
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };
  const auto serial_allocs =
      count([&] { (void)detect_loops(trace, serial_config); });
  const auto parallel_allocs =
      count([&] { (void)detect_loops(trace, parallel_config); });

  EXPECT_LE(parallel_allocs, serial_allocs)
      << "warm parallel=" << parallel_allocs << " serial=" << serial_allocs;
  EXPECT_GT(serial_allocs, 10u) << "fixture too small to measure allocation";
}

}  // namespace
}  // namespace rloop::core
