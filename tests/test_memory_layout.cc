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
#include <array>
#include <atomic>
#include <tuple>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/detect_state.h"
#include "core/loop_detector.h"
#include "core/pipeline.h"
#include "core/prefix_index.h"
#include "core/record.h"
#include "core/record_store.h"
#include "core/replica_detector.h"
#include "core/replica_key.h"
#include "net/packet.h"
#include "net/pcap.h"
#include "net/pcap_mmap.h"
#include "net/trace.h"
#include "result_equality.h"
#include "telemetry/decision_log.h"
#include "telemetry/registry.h"
#include "trace_builder.h"
#include "util/random.h"

namespace {
// Global allocation counter for the allocation assertions. Relaxed
// atomics: only the total is read, after the counted call has joined its
// threads.
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

// The array forms route through the counting forms above. Left to the
// runtime, they would be counted in a plain build (libstdc++'s new[] calls
// the replaced new) but not under a sanitizer, whose runtime supplies its
// own new[]: the arena's chunks (make_unique<std::byte[]>) would drop out
// of the pinned counts under TSan and ASan.
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return operator new(size, align, tag);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace rloop::core {
namespace {

using rloop::testing::TraceBuilder;
using rloop::testing::expect_equal_stream_vectors;

// Heap allocations (every operator new form above) made while `fn` runs.
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const auto before = g_alloc_count.load(std::memory_order_relaxed);
  fn();
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

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
  const auto flat = detector.detect(RecordStore::build(trace));
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
                                detector.detect(RecordStore::build(trace)), "streams");
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

// A trace where at least 95% of the records carry a header seen nowhere
// else in it: background traffic over a pool of /24s with fresh IP IDs and
// ports, plus loops on some of those /24s (so validation sees both
// verdicts), IP-ID reuse past the stream timeout, TTL increases and
// malformed records. Most records are skipped by the repeated-hash mark.
net::Trace& one_off_trace(TraceBuilder& builder, std::uint64_t seed,
                          int background = 6000) {
  util::Rng rng(seed);
  const auto prefix_pool = [&](std::int64_t k) {
    return net::Ipv4Addr(10, static_cast<std::uint8_t>(k / 256),
                         static_cast<std::uint8_t>(k % 256),
                         static_cast<std::uint8_t>(rng.uniform_int(1, 254)));
  };
  constexpr net::TimeNs kSpan = 150 * net::kSecond;
  for (int i = 0; i < background; ++i) {
    builder.packet(rng.uniform_int(0, kSpan),
                   prefix_pool(rng.uniform_int(0, 399)),
                   static_cast<std::uint8_t>(rng.uniform_int(20, 250)),
                   static_cast<std::uint16_t>(rng.uniform_int(0, 65535)),
                   net::Ipv4Addr(198, 51, 100, 1),
                   static_cast<std::uint16_t>(rng.uniform_int(1024, 65535)));
  }
  for (int loop = 0; loop < 25; ++loop) {
    const net::Ipv4Addr dst = prefix_pool(rng.uniform_int(0, 399));
    const auto ip_id = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    net::TimeNs t = rng.uniform_int(0, kSpan);
    // One to three bursts of the same header: the later ones reuse the
    // IP ID past the stream timeout, or restart from a higher TTL.
    const int bursts = static_cast<int>(rng.uniform_int(1, 3));
    for (int b = 0; b < bursts; ++b) {
      builder.replica_stream(
          t, dst, static_cast<std::uint8_t>(rng.uniform_int(100, 250)), ip_id,
          static_cast<int>(rng.uniform_int(2, 9)),
          static_cast<int>(rng.uniform_int(1, 3)),
          static_cast<net::TimeNs>(rng.uniform_int(1, 400)) *
              net::kMillisecond);
      t += rng.bernoulli(0.5) ? 11 * net::kSecond : 5 * net::kSecond;
    }
  }
  for (int i = 0; i < 20; ++i) {
    builder.raw(rng.uniform_int(0, kSpan),
                std::vector<std::byte>(
                    static_cast<std::size_t>(rng.uniform_int(0, 30))));
  }
  return builder.trace();
}

// Share of parsed records whose key hash occurs exactly once.
double one_off_share(const RecordStore& store) {
  std::unordered_map<std::uint64_t, int> seen;
  std::size_t ok = 0;
  for (std::size_t i = 0; i < store.size(); ++i) {
    if (!store.ok(i)) continue;
    ++ok;
    ++seen[store.key_hash(i)];
  }
  std::size_t once = 0;
  for (const auto& [hash, count] : seen) once += count == 1 ? 1 : 0;
  return ok == 0 ? 0.0 : static_cast<double>(once) / static_cast<double>(ok);
}

// Every retained journal event in the causal (ts, kind, record) order,
// broken further by the remaining fields so the order is total.
std::vector<telemetry::DecisionEvent> causal_events(
    const telemetry::DecisionLog& log) {
  EXPECT_EQ(log.overwritten(), 0u) << "journal ring too small for the test";
  auto events = log.snapshot();
  const auto key = [](const telemetry::DecisionEvent& e) {
    return std::tuple(e.ts, static_cast<int>(e.kind), e.record_index,
                      e.dst24.packed(), e.detail, e.detail2);
  };
  std::sort(events.begin(), events.end(),
            [&](const auto& a, const auto& b) { return key(a) < key(b); });
  return events;
}

void expect_equal_journals(const telemetry::DecisionLog& want,
                           const telemetry::DecisionLog& got) {
  const auto a = causal_events(want);
  const auto b = causal_events(got);
  ASSERT_EQ(a.size(), b.size()) << "journal event count differs";
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string where = "event " + std::to_string(i);
    EXPECT_EQ(a[i].kind, b[i].kind) << where;
    EXPECT_EQ(a[i].dst24, b[i].dst24) << where;
    EXPECT_EQ(a[i].ts, b[i].ts) << where;
    EXPECT_EQ(a[i].record_index, b[i].record_index) << where;
    EXPECT_EQ(a[i].detail, b[i].detail) << where;
    EXPECT_EQ(a[i].detail2, b[i].detail2) << where;
  }
}

std::uint64_t counter_value(telemetry::Registry& reg, const char* name) {
  return reg.counter(name)->value();
}

// The reference engine plus the ParsedRecord validator and merger — no
// mark, no scoped index — journaled into `log` and counted into `reg`.
struct ReferenceRun {
  std::vector<ReplicaStream> raw;
  std::vector<ReplicaStream> valid;
  std::vector<RoutingLoop> loops;
};
ReferenceRun run_reference(const net::Trace& trace,
                           const std::vector<ParsedRecord>& records,
                           telemetry::Registry& reg,
                           telemetry::DecisionLog& log) {
  ReferenceRun run;
  run.raw = ReplicaDetector({}, &reg, &log).detect_reference(trace, records);
  run.valid = StreamValidator({}, nullptr, &log).validate(records, run.raw);
  run.loops = StreamMerger({}, nullptr, &log).merge(records, run.valid);
  return run;
}

// Candidate streams opened on the serial path and by the reference engine.
struct OpenedCounts {
  std::uint64_t serial = 0;
  std::uint64_t reference = 0;
};

// Runs detect_loops under every shape — serial and the staged pipeline at
// threads {2,4} x shard_bits {0,2,4} — and diffs streams, loops, the
// journal and the counters the mark must not move against the reference.
OpenedCounts expect_every_path_matches_reference(const net::Trace& trace) {
  const auto records = parse_trace(trace);
  telemetry::Registry ref_reg;
  telemetry::DecisionLog ref_log({.capacity = 1u << 20});
  const ReferenceRun ref = run_reference(trace, records, ref_reg, ref_log);
  EXPECT_GT(ref.raw.size(), 0u) << "fixture must exercise the detector";
  OpenedCounts opened_counts;
  opened_counts.reference =
      counter_value(ref_reg, "rloop_detector_streams_opened_total");

  const auto store = RecordStore::build(trace, records);
  expect_equal_stream_vectors(ref.raw, ReplicaDetector().detect(store),
                              "detect(store)");

  std::vector<std::pair<unsigned, unsigned>> shapes = {{1, 0}};
  for (const unsigned threads : {2u, 4u}) {
    for (const unsigned bits : {0u, 2u, 4u}) shapes.emplace_back(threads, bits);
  }
  for (const auto& [threads, bits] : shapes) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads) +
                 " shard_bits=" + std::to_string(bits));
    telemetry::Registry reg;
    telemetry::DecisionLog log({.capacity = 1u << 20});
    LoopDetectorConfig config;
    config.parallel.num_threads = threads;
    config.parallel.shard_bits = bits;
    config.registry = &reg;
    config.journal = &log;
    const auto result = detect_loops(trace, config);
    expect_equal_stream_vectors(ref.raw, result.raw_streams, "raw_streams");
    expect_equal_stream_vectors(ref.valid, result.valid_streams,
                                "valid_streams");
    rloop::testing::expect_equal_loops(ref.loops, result.loops);
    expect_equal_journals(ref_log, log);
    for (const char* name : {"rloop_detector_records_total",
                             "rloop_detector_replicas_matched_total",
                             "rloop_detector_streams_emitted_total"}) {
      EXPECT_EQ(counter_value(reg, name), counter_value(ref_reg, name))
          << name;
    }
    const auto spacing = [](telemetry::Registry& r) {
      return r.histogram("rloop_detector_replica_spacing_ns",
                         telemetry::spacing_bounds_ns());
    };
    EXPECT_EQ(spacing(reg)->count(), spacing(ref_reg)->count());
    EXPECT_EQ(spacing(reg)->sum(), spacing(ref_reg)->sum());
    const std::uint64_t opened =
        counter_value(reg, "rloop_detector_streams_opened_total");
    EXPECT_LE(opened, opened_counts.reference);
    if (threads == 1) opened_counts.serial = opened;
  }
  return opened_counts;
}

TEST(MemoryLayout, OneOffDominatedTracesMatchReferenceOnEveryPath) {
  for (const std::uint64_t seed : {5u, 29u, 71u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    TraceBuilder builder;
    const net::Trace& trace = one_off_trace(builder, seed);
    const auto records = parse_trace(trace);
    const auto store = RecordStore::build(trace, records);
    ASSERT_GE(one_off_share(store), 0.95) << "fixture must be one-off heavy";

    telemetry::Registry ref_reg;
    telemetry::DecisionLog ref_log;
    const ReferenceRun ref = run_reference(trace, records, ref_reg, ref_log);
    ASSERT_GT(ref.loops.size(), 0u);
    ASSERT_LT(ref.valid.size(), ref.raw.size())
        << "fixture must make validation reject some streams";

    const OpenedCounts opened = expect_every_path_matches_reference(trace);
    // The mark did skip: most one-offs never became candidates.
    EXPECT_LT(opened.serial * 4, opened.reference);
  }
}

TEST(MemoryLayout, OneOffsSharingAMarkBucketAreBothProcessed) {
  // Six replicas of one looped header, then two one-off headers A and B.
  // Eight records size the mark exactly as seven do (RepeatMark floors
  // the record count at 8), so A's bucket is the same with or without B.
  constexpr std::size_t kRecords = 8;
  const net::TimeNs t0 = 0;
  const auto header_hash = [](const net::Ipv4Addr& dst, std::uint16_t ip_id) {
    net::Trace one("probe", 0);
    const auto pkt = net::make_udp_packet(net::Ipv4Addr(198, 51, 100, 1), dst,
                                          1000, 2000, 64, 64, ip_id);
    one.add(0, pkt, pkt.ip.total_length);
    return replica_key_hash(one[0].bytes());
  };
  const net::Ipv4Addr loop_dst(10, 9, 9, 9);
  const net::Ipv4Addr one_off_dst(10, 8, 8, 8);
  detail::RepeatMark mark;
  mark.reset(kRecords);
  const std::size_t loop_bucket = mark.bucket(header_hash(loop_dst, 7));
  // Brute force through the mark's own bucket function: A avoids the
  // loop's bucket, B is a distinct header in A's bucket.
  std::uint16_t id_a = 1;
  while (mark.bucket(header_hash(one_off_dst, id_a)) == loop_bucket) ++id_a;
  const std::uint64_t hash_a = header_hash(one_off_dst, id_a);
  std::uint16_t id_b = static_cast<std::uint16_t>(id_a + 1);
  while (mark.bucket(header_hash(one_off_dst, id_b)) != mark.bucket(hash_a) ||
         header_hash(one_off_dst, id_b) == hash_a) {
    ++id_b;
  }

  const auto build = [&](TraceBuilder& builder, bool with_b) -> net::Trace& {
    builder.replica_stream(t0, loop_dst, 200, 7, 6, 2, net::kMillisecond);
    builder.packet(t0 + 2 * net::kMillisecond, one_off_dst, 64, id_a);
    if (with_b) {
      builder.packet(t0 + 3 * net::kMillisecond, one_off_dst, 64, id_b);
    }
    return builder.trace();
  };

  // A alone: its bucket holds one hash, so the mark skips it.
  TraceBuilder alone_builder;
  const net::Trace& alone = build(alone_builder, false);
  const OpenedCounts alone_opened = expect_every_path_matches_reference(alone);
  EXPECT_EQ(alone_opened.serial + 1, alone_opened.reference);

  // A and B share a bucket: the mark lets both through to the state
  // machine (every record opens or extends a candidate, as in the
  // reference), and the output is unchanged.
  TraceBuilder pair_builder;
  const net::Trace& pair = build(pair_builder, true);
  ASSERT_EQ(pair.size(), kRecords);
  const OpenedCounts pair_opened = expect_every_path_matches_reference(pair);
  EXPECT_EQ(pair_opened.serial, pair_opened.reference);
}

// A seeded mutator for stream expiry over long traces. Filler headers each
// occur twice, one hop apart (never loop evidence), so every filler record
// passes the repeated-hash mark and reaches the state machine, at about
// 8 k records per second: any stream-timeout window holds more than 64 Ki
// of them, and the trace spans several timeouts. Mixed in: keys
// re-observed just under, exactly at and one nanosecond past the timeout;
// loops whose replica gaps include the timeout, the timeout plus 1 ns and
// zero (bursts at one timestamp); IP-ID reuse and TTL increases that leave
// one key with a chain of several open streams; duplicate bursts; truncated
// and non-IPv4 rows.
net::Trace& expiry_trace(TraceBuilder& builder, std::uint64_t seed,
                         int filler_pairs) {
  util::Rng rng(seed);
  constexpr net::TimeNs kTimeout = ReplicaDetectorConfig{}.stream_timeout;
  const auto byte = [&](std::int64_t lo, std::int64_t hi) {
    return static_cast<std::uint8_t>(rng.uniform_int(lo, hi));
  };
  net::TimeNs t = 0;
  for (int i = 0; i < filler_pairs; ++i) {
    t += rng.uniform_int(1, 500) * net::kMicrosecond;
    const net::Ipv4Addr dst(172, byte(16, 31), byte(0, 255), byte(1, 254));
    const net::Ipv4Addr src(198, 51, static_cast<std::uint8_t>(i >> 16), 1);
    const auto ip_id = static_cast<std::uint16_t>(i);
    const std::uint8_t ttl = byte(20, 250);
    builder.packet(t, dst, ttl, ip_id, src);
    builder.packet(t + rng.uniform_int(0, 3000) * net::kMicrosecond, dst,
                   static_cast<std::uint8_t>(rng.bernoulli(0.5) ? ttl - 1
                                                                : ttl + 1),
                   ip_id, src);
  }
  const net::TimeNs span = t;
  const auto at = [&] { return rng.uniform_int(0, span); };
  const auto gap = [&] {
    switch (rng.uniform_int(0, 5)) {
      case 0:
        return kTimeout;
      case 1:
        return kTimeout + 1;
      case 2:
        return net::TimeNs{0};
      default:
        return rng.uniform_int(1, 3000) * net::kMillisecond;
    }
  };
  const auto near_timeout = [&] {
    switch (rng.uniform_int(0, 3)) {
      case 0:
        return kTimeout - 1;
      case 1:
        return kTimeout;
      case 2:
        return kTimeout + 1;
      default:
        return kTimeout - rng.uniform_int(1, 1000) * net::kMicrosecond;
    }
  };
  std::uint16_t next_id = 0;
  // Keys re-observed just under, at or just past the timeout, one every
  // ~4 ms, so whenever a 64 Ki-record window closes some key has sat idle
  // for almost the whole timeout.
  for (net::TimeNs t0 = 0; t0 < span; t0 += 4 * net::kMillisecond) {
    const net::Ipv4Addr dst(10, 1, byte(0, 255), byte(1, 254));
    const std::uint16_t ip_id = ++next_id;
    const net::TimeNs start = t0 + rng.uniform_int(0, 999) * net::kMicrosecond;
    const net::TimeNs idle = near_timeout();
    builder.packet(start, dst, 200, ip_id);
    builder.packet(start + idle, dst, 198, ip_id);
    if (rng.bernoulli(0.3)) builder.packet(start + 2 * idle, dst, 196, ip_id);
  }
  // Loops, some starting together (bursts at one timestamp across keys).
  net::TimeNs loop_start = at();
  for (int loop = 0; loop < 60; ++loop) {
    if (rng.bernoulli(0.7)) loop_start = at();
    const net::Ipv4Addr dst(10, 2, byte(0, 15), byte(1, 254));
    const std::uint16_t ip_id = ++next_id;
    const int delta = static_cast<int>(rng.uniform_int(2, 6));
    net::TimeNs ts = loop_start;
    int ttl = 250;
    for (int n = static_cast<int>(rng.uniform_int(3, 30)); n > 0 && ttl > 0;
         --n) {
      builder.packet(ts, dst, static_cast<std::uint8_t>(ttl), ip_id);
      ttl -= delta;
      ts += gap();
    }
  }
  // One header at random TTLs: increases open a new stream beside the
  // open ones, decreases extend the newest stream they can.
  for (int key = 0; key < 60; ++key) {
    const net::Ipv4Addr dst(10, 3, byte(0, 15), byte(1, 254));
    const std::uint16_t ip_id = ++next_id;
    net::TimeNs ts = at();
    for (int n = static_cast<int>(rng.uniform_int(6, 24)); n > 0; --n) {
      builder.packet(ts, dst, byte(30, 250), ip_id);
      ts += gap();
    }
  }
  // Duplicate bursts: equal-TTL copies, then sometimes a looped replica.
  for (int burst = 0; burst < 40; ++burst) {
    const net::Ipv4Addr dst(10, 4, byte(0, 15), byte(1, 254));
    const std::uint16_t ip_id = ++next_id;
    const net::TimeNs ts = at();
    const std::uint8_t ttl = byte(10, 250);
    for (int n = static_cast<int>(rng.uniform_int(2, 8)); n > 0; --n) {
      builder.packet(ts + rng.uniform_int(0, 1) * net::kMicrosecond, dst, ttl,
                     ip_id);
    }
    if (rng.bernoulli(0.5)) {
      builder.packet(ts + net::kMillisecond, dst,
                     static_cast<std::uint8_t>(ttl - 2), ip_id);
    }
  }
  // Truncated rows and non-IPv4 rows (version 6 in the first nibble).
  for (int i = 0; i < 200; ++i) {
    builder.raw(at(), std::vector<std::byte>(
                          static_cast<std::size_t>(rng.uniform_int(0, 19))));
    std::vector<std::byte> v6(40);
    v6[0] = std::byte{0x60};
    builder.raw(at(), std::move(v6));
  }
  return builder.trace();
}

// Records whose key hash occurs more than once: a lower bound on what the
// repeated-hash mark passes to the state machine.
std::size_t repeated_records(const RecordStore& store) {
  std::unordered_map<std::uint64_t, std::size_t> seen;
  for (std::size_t i = 0; i < store.size(); ++i) {
    if (store.ok(i)) ++seen[store.key_hash(i)];
  }
  std::size_t repeated = 0;
  for (const auto& [hash, count] : seen) repeated += count > 1 ? count : 0;
  return repeated;
}

void expect_expiry_trace_matches_reference(std::uint64_t seed,
                                           int filler_pairs) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  TraceBuilder builder;
  const net::Trace& trace = expiry_trace(builder, seed, filler_pairs);
  ASSERT_GT(repeated_records(RecordStore::build(trace)), 2u * 65'536u)
      << "fixture must run the state machine past two 64 Ki-record windows";
  expect_every_path_matches_reference(trace);
}

TEST(MemoryLayout, ExpiryMutatorMatchesReferenceSmallBudget) {
  expect_expiry_trace_matches_reference(24, 75'000);
}

// Slow tier (a separate ctest entry).
TEST(MemoryLayout, ExpiryMutatorMatchesReferenceLargeBudget) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    expect_expiry_trace_matches_reference(seed, 250'000);
  }
}

// Every store column equals the parse_trace view of the same record,
// including the zeroed dst/dst24/ttl/key_hash of rejected rows, and
// detect_loops() counts exactly the view's parse failures while filling,
// at one thread and at three.
void expect_store_matches_parse_trace(const net::Trace& trace) {
  const auto records = parse_trace(trace);
  const auto store = RecordStore::build(trace);
  ASSERT_EQ(store.size(), records.size());
  std::uint64_t want_failures = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ParsedRecord& rec = records[i];
    if (!rec.ok) ++want_failures;
    EXPECT_EQ(store.ok(i), rec.ok) << i;
    EXPECT_EQ(store.ts(i), rec.ts) << i;
    EXPECT_EQ(store.ttl(i), rec.pkt.ip.ttl) << i;
    EXPECT_EQ(store.dst(i), rec.pkt.ip.dst) << i;
    EXPECT_EQ(store.dst24(i).addr, rec.dst24.addr) << i;
    EXPECT_EQ(store.key_hash(i),
              rec.ok ? replica_key_hash(trace[i].bytes()) : 0u)
        << i;
    EXPECT_EQ(store.bytes(i).size(), trace[i].bytes().size()) << i;
    if (rec.ok) {
      EXPECT_TRUE(store.dst24(i) == rec.dst24) << i;
      EXPECT_EQ(store.dst24_key(i),
                (std::uint64_t{rec.dst24.addr.value} << 8) | 24u)
          << i;
    }
  }
  EXPECT_EQ(detect_loops(trace).parse_failures, want_failures);
  LoopDetectorConfig parallel;
  parallel.parallel.num_threads = 3;
  parallel.parallel.shard_bits = 2;
  EXPECT_EQ(detect_loops(trace, parallel).parse_failures, want_failures);
}

// A seeded byte mutator over valid TCP/UDP/ICMP headers. Each record takes
// one mutation aimed at a branch of the header parse: a capture cut to
// 0-40 B, version != 4, IHL < 5, IHL past the capture, total_length below
// the header, IP options, or a non-first fragment (no transport parse).
net::Trace mutated_trace(std::uint64_t seed, int count = 3000) {
  util::Rng rng(seed);
  net::Trace trace("mutated", 0);
  for (int n = 0; n < count; ++n) {
    const net::Ipv4Addr src(198, 51, 100,
                            static_cast<std::uint8_t>(rng.uniform_int(1, 9)));
    const net::Ipv4Addr dst(static_cast<std::uint8_t>(rng.uniform_int(1, 223)),
                            static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                            static_cast<std::uint8_t>(rng.uniform_int(0, 3)),
                            static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    const auto ttl = static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    const auto id = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    net::ParsedPacket pkt;
    switch (rng.uniform_int(0, 2)) {
      case 0:
        pkt = net::make_tcp_packet(src, dst, 1234, 80, 7, 9, net::kTcpSyn, 0,
                                   ttl, id);
        break;
      case 1:
        pkt = net::make_udp_packet(src, dst, 53, 5353, 12, ttl, id);
        break;
      default:
        pkt = net::make_icmp_packet(src, dst, net::IcmpType::echo_request, 0,
                                    0, 32, ttl, id);
        break;
    }
    std::array<std::byte, net::kSnapLen> buf{};
    std::size_t len = net::serialize_packet(pkt, buf);
    const auto ihl = [&](int words) {
      buf[0] = static_cast<std::byte>(0x40 | words);
    };
    switch (rng.uniform_int(0, 7)) {
      case 0:  // capture of 0-40 B
        len = static_cast<std::size_t>(rng.uniform_int(0, 40));
        break;
      case 1: {  // version != 4
        auto version = static_cast<int>(rng.uniform_int(0, 14));
        if (version >= 4) ++version;
        buf[0] = static_cast<std::byte>(version << 4 | 5);
        break;
      }
      case 2:  // IHL < 5
        ihl(static_cast<int>(rng.uniform_int(0, 4)));
        break;
      case 3:  // IHL past the capture
        ihl(static_cast<int>(rng.uniform_int(6, 15)));
        len = std::min<std::size_t>(len, 20);
        break;
      case 4: {  // total_length below the header
        const auto total = static_cast<std::uint16_t>(rng.uniform_int(0, 19));
        buf[2] = static_cast<std::byte>(total >> 8);
        buf[3] = static_cast<std::byte>(total & 0xff);
        break;
      }
      case 5:  // IP options that fit the 40 B capture
        ihl(static_cast<int>(rng.uniform_int(6, 10)));
        len = net::kSnapLen;
        break;
      case 6:  // non-first fragment
        buf[6] = static_cast<std::byte>(rng.uniform_int(0, 0x1f));
        buf[7] = static_cast<std::byte>(rng.uniform_int(1, 255));
        break;
      default:  // left valid
        break;
    }
    trace.add(n * net::kMicrosecond, std::span<const std::byte>(buf.data(), len),
              static_cast<std::uint32_t>(len));
  }
  return trace;
}

TEST(MemoryLayout, RecordStoreColumnsMatchParsedRecords) {
  {
    SCOPED_TRACE("synthetic");
    TraceBuilder builder;
    expect_store_matches_parse_trace(synthetic_trace(builder));
  }
  for (const std::uint64_t seed : {5u, 77u, 9001u}) {
    SCOPED_TRACE("mutated seed=" + std::to_string(seed));
    const net::Trace trace = mutated_trace(seed);
    std::size_t rejected = 0;
    for (const auto& rec : parse_trace(trace)) rejected += rec.ok ? 0 : 1;
    // Both verdicts must be well represented for the diff to mean much.
    EXPECT_GT(rejected, trace.size() / 4);
    EXPECT_LT(rejected, trace.size() * 3 / 4);
    expect_store_matches_parse_trace(trace);
  }
  // The hostile pcap corpus: every file that reads at all.
  for (const char* name :
       {"absurd_snaplen.pcap", "bad_magic.pcap", "overclaim.pcap",
        "torn_header.pcap", "zero_len_records.pcap"}) {
    SCOPED_TRACE(name);
    std::optional<net::Trace> trace;
    try {
      trace = net::read_pcap_fast(std::string(RLOOP_HOSTILE_DIR) + "/" + name);
    } catch (const std::runtime_error&) {
      continue;  // malformed framing: nothing to fill
    }
    expect_store_matches_parse_trace(*trace);
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

TEST(MemoryLayout, ScopedFlatIndexAnswersStreamPrefixesLikeFullIndex) {
  TraceBuilder builder;
  const net::Trace& trace = fuzz_trace(builder, 91);
  const auto records = parse_trace(trace);
  const auto store = RecordStore::build(trace, records);

  // The detector's own streams, plus one-replica pseudo-streams on a
  // random third of the records: many stream prefixes, and member and
  // non-member records on most of them.
  auto streams = ReplicaDetector().detect(store);
  ASSERT_FALSE(streams.empty());
  util::Rng rng(92);
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!records[i].ok || !rng.bernoulli(0.3)) continue;
    ReplicaStream pseudo;
    pseudo.dst = records[i].pkt.ip.dst;
    pseudo.dst24 = records[i].dst24;
    pseudo.replicas = {{static_cast<std::uint32_t>(i), records[i].ts,
                        records[i].pkt.ip.ttl}};
    streams.push_back(std::move(pseudo));
  }
  const auto member = stream_membership(records.size(), streams);
  const NonLoopedIndex full(records, member);

  // Scoped to half of the streams, so prefixes outside the scope exist.
  const std::vector<ReplicaStream> scope(
      streams.begin(),
      streams.begin() + static_cast<std::ptrdiff_t>(streams.size() / 2));
  NonLoopedIndex scoped;
  scoped.rebuild(store, member, scope);
  EXPECT_LT(scoped.entry_count(), full.entry_count())
      << "the fixture must leave prefixes out of scope";

  // A rebuild into warm capacity, over a scope holding the first one's
  // streams and more, must answer the same.
  NonLoopedIndex warm;
  warm.rebuild(store, member, streams);
  warm.rebuild(store, member, scope);
  EXPECT_EQ(warm.entry_count(), scoped.entry_count());

  std::size_t queries = 0;
  for (const ReplicaStream& stream : scope) {
    const net::Prefix& p = stream.dst24;
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (!records[i].ok || records[i].dst24 != p) continue;
      const net::TimeNs ts = records[i].ts;
      for (const auto& [from, to] :
           {std::pair<net::TimeNs, net::TimeNs>{ts, ts},
            {ts - net::kSecond, ts + net::kSecond},
            {ts + 1, ts + net::kSecond},
            {stream.start(), stream.end()}}) {
        const auto want = full.first_in(p, from, to);
        EXPECT_EQ(scoped.first_in(p, from, to), want) << i;
        EXPECT_EQ(warm.first_in(p, from, to), want) << i;
        EXPECT_EQ(warm.any_in(p, from, to), want.has_value()) << i;
        ++queries;
      }
    }
  }
  EXPECT_GT(queries, 100u);
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

  const auto ref_allocs = allocations_during(
      [&] { (void)detector.detect_reference(trace, records); });
  const auto flat_allocs =
      allocations_during([&] { (void)detector.detect(store); });

  // The arena + flat table exist to collapse the per-key node and per-stream
  // vector churn; require at least a 2x reduction so a regression that
  // quietly reintroduces per-record allocation fails here.
  EXPECT_LT(flat_allocs * 2, ref_allocs)
      << "flat=" << flat_allocs << " reference=" << ref_allocs;
  EXPECT_GT(ref_allocs, 100u) << "fixture too small to measure allocation";
}

TEST(MemoryLayout, NullRegistryResolvesAllocateNothing) {
  // "Zero telemetry overhead" without a registry includes the allocator:
  // resolving a labelled metric must not build its label set or copy its
  // bounds before finding there is nowhere to register it. The default
  // bounds are built once per process, on first use.
  (void)telemetry::latency_bounds_ns();
  (void)telemetry::spacing_bounds_ns();
  std::vector<const void*> resolved;
  resolved.reserve(16);
  const auto allocs = allocations_during([&] {
    resolved.push_back(telemetry::get_counter(
        nullptr, "rloop_pipeline_stage_busy_ns_total", {{"stage", "ingest"}},
        "Nanoseconds a pipeline stage spent doing work"));
    resolved.push_back(telemetry::get_gauge(
        nullptr, "rloop_test_gauge", {{"stage", "detect"}, {"shard", "3"}}));
    resolved.push_back(telemetry::get_histogram(
        nullptr, "rloop_pipeline_stage_latency_ns",
        telemetry::latency_bounds_ns(), {{"stage", "validate"}},
        "Wall-clock latency of one detection-pipeline stage per call"));
    resolved.push_back(telemetry::get_histogram(
        nullptr, "rloop_detector_replica_spacing_ns",
        telemetry::spacing_bounds_ns()));
    // The stage objects resolve their (labelled) metrics on construction.
    const ReplicaDetector detector;
    const StreamValidator validator;
    const StreamMerger merger;
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(std::count(resolved.begin(), resolved.end(), nullptr), 4);
}

// The registry counters pinned per path: what each of the paper's three
// steps did. A reason label of nullptr means an unlabelled counter.
struct WorkCounter {
  const char* name;
  const char* reason;
};
constexpr std::array<WorkCounter, 10> kWorkCounters = {{
    {"rloop_detector_records_total", nullptr},
    {"rloop_detector_replicas_matched_total", nullptr},
    {"rloop_detector_streams_opened_total", nullptr},
    {"rloop_detector_streams_expired_total", nullptr},
    {"rloop_detector_streams_emitted_total", nullptr},
    {"rloop_validator_streams_accepted_total", nullptr},
    {"rloop_validator_streams_rejected_total", "too_small"},
    {"rloop_validator_streams_rejected_total", "prefix_conflict"},
    {"rloop_merger_merges_total", nullptr},
    {"rloop_merger_loops_total", nullptr},
}};

// What one detect_loops() call under a config does: the heap allocations
// of a warm call with no registry, and the kWorkCounters of a call with one.
struct PathCounts {
  std::uint64_t allocs = 0;
  std::array<std::uint64_t, kWorkCounters.size()> work{};
};

PathCounts count_path(const net::Trace& trace, LoopDetectorConfig config) {
  // Warm twice: the first parallel run builds the pool and sizes every
  // buffer, the second proves the sizing stuck.
  (void)detect_loops(trace, config);
  (void)detect_loops(trace, config);
  PathCounts counts;
  counts.allocs =
      allocations_during([&] { (void)detect_loops(trace, config); });
  telemetry::Registry reg;
  config.registry = &reg;
  (void)detect_loops(trace, config);
  for (std::size_t i = 0; i < kWorkCounters.size(); ++i) {
    const WorkCounter& c = kWorkCounters[i];
    telemetry::LabelSet labels;
    if (c.reason != nullptr) labels.emplace_back("reason", c.reason);
    counts.work[i] = reg.counter(c.name, std::move(labels))->value();
  }
  return counts;
}

void expect_counts(const PathCounts& got, const PathCounts& want,
                   const std::string& where) {
  EXPECT_EQ(got.allocs, want.allocs) << where << ": warm allocations";
  for (std::size_t i = 0; i < kWorkCounters.size(); ++i) {
    const WorkCounter& c = kWorkCounters[i];
    EXPECT_EQ(got.work[i], want.work[i])
        << where << ": " << c.name
        << (c.reason ? std::string("{reason=") + c.reason + "}" : "");
  }
}

TEST(MemoryLayout, WarmPipelineAllocatesNoMoreThanSerial) {
  // The pipeline's whole point of carrying a workspace: once warm, a run's
  // per-call allocation (pool reused, columns and buckets reused, per-shard
  // arenas, marks and stream vectors rewound in place) is what its result
  // holds, at one thread and at four, and must not exceed a one-thread run
  // on a transient workspace — parallelism may not buy its speed with
  // allocator churn. Three traces: the fuzz mix, where nearly every record
  // repeats its header; a one-off-dominated one shaped like backbone
  // traffic, where the repeated-hash mark leaves few candidates and
  // validation rejects streams; and the committed golden capture.
  //
  // Every count below is pinned exactly, per trace and path: the warm
  // allocations and the work each step did. They are functions of the
  // input, not of thread timing, so exact pins cannot flap, and a margin
  // would hide a regression (one extra fan-out or one extra column is one
  // allocation; a mark that skips nothing only moves the opened/expired
  // candidate counts). The one-thread run on a transient workspace builds
  // the workspace each call: its Impl, pool, state table, one state,
  // shard-owner table, bucket array, the bucket's list and shard-histogram
  // table, plus the result's raw-stream buffer (the one-shard streams are
  // moved out of the state's warm `closed` vector), against one store
  // column fewer (dst24 is derived from dst) — 8 more than the
  // before-workspace serial path's 533/244/55. The one-thread runs use one
  // shard and so do identical work, kept or transient. The opened/expired
  // counts may differ between one and four threads, since each shard's
  // mark sees only its own records (DESIGN.md §5.1), and each shard's
  // expiry runs at its own records' timestamps, so a stream that times out
  // after its shard's last record closes uncounted at the end of the run;
  // every other work count must agree. A change that moves a pin on
  // purpose re-pins it here and says why.
  struct Fixture {
    const char* name;
    const net::Trace* trace;
    PathCounts serial;       // one thread, a transient workspace per call
    std::uint64_t warm_serial_allocs;  // one thread, a kept workspace
    PathCounts parallel;     // four threads, a kept workspace
  };
  TraceBuilder fuzz_builder;
  TraceBuilder one_off_builder;
  const net::Trace golden = net::read_pcap_fast(
      std::string(RLOOP_GOLDEN_DIR) + "/golden_trace.pcap");
  // work: records, matched, opened, expired, emitted, accepted,
  //       rejected{too_small}, rejected{prefix_conflict}, merges, loops
  for (const Fixture& f : {
           Fixture{"fuzz", &fuzz_trace(fuzz_builder, 202),
                   {541, {813, 291, 511, 506, 191, 49, 133, 9, 7, 42}},
                   512,
                   {512, {813, 291, 511, 504, 191, 49, 133, 9, 7, 42}}},
           Fixture{"one_off", &one_off_trace(one_off_builder, 203, 100'000),
                   {252, {100'298, 233, 4861, 4641, 62, 16, 12, 34, 2, 14}},
                   199,
                   {199, {100'298, 233, 4876, 4564, 62, 16, 12, 34, 2, 14}}},
           Fixture{"golden", &golden,
                   {63, {656, 184, 11, 1, 3, 3, 0, 0, 1, 2}},
                   38,
                   {38, {656, 184, 17, 6, 3, 3, 0, 0, 1, 2}}},
       }) {
    LoopDetectorConfig serial_config;
    PipelineWorkspace warm_serial_workspace;
    LoopDetectorConfig warm_serial_config;
    warm_serial_config.workspace = &warm_serial_workspace;
    PipelineWorkspace workspace;
    LoopDetectorConfig parallel_config;
    parallel_config.parallel.num_threads = 4;
    parallel_config.parallel.shard_bits = 2;
    parallel_config.workspace = &workspace;
    const PathCounts serial = count_path(*f.trace, serial_config);
    const PathCounts warm_serial = count_path(*f.trace, warm_serial_config);
    const PathCounts parallel = count_path(*f.trace, parallel_config);
    EXPECT_LE(parallel.allocs, serial.allocs)
        << f.name << ": warm parallel=" << parallel.allocs
        << " serial=" << serial.allocs;
    EXPECT_LT(warm_serial.allocs, serial.allocs)
        << f.name << ": warm serial=" << warm_serial.allocs
        << " cold serial=" << serial.allocs;
    EXPECT_GT(serial.allocs, 10u) << "fixture too small to measure allocation";
    expect_counts(serial, f.serial, std::string(f.name) + " serial");
    expect_counts(warm_serial, {f.warm_serial_allocs, f.serial.work},
                  std::string(f.name) + " warm serial");
    expect_counts(parallel, f.parallel, std::string(f.name) + " parallel");
  }
}

}  // namespace
}  // namespace rloop::core
