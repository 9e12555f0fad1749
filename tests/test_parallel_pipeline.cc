// Differential test harness for the sharded, multi-threaded pipeline: for
// every (num_threads, shard_bits) detect_loops() must produce
// FIELD-IDENTICAL results to its one-thread, one-shard run (the serial
// case below) — same raw streams (replica by
// replica, record index by record index), same validated streams, same
// loops, same ValidationStats. The sharding argument (parallel.h) says this
// holds for any trace; these tests check it on simulator-generated Backbone
// traces across seeds, on synthetic adversarial traces, and for the
// supporting primitives (key-hash consistency, pool exception propagation,
// workspace reuse across registries).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "core/loop_detector.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/replica_key.h"
#include "net/packet.h"
#include "result_equality.h"
#include "scenarios/backbone.h"
#include "trace_builder.h"
#include "util/failpoint.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace rloop {
namespace {

using rloop::testing::TraceBuilder;
using rloop::testing::expect_equal_results;

constexpr unsigned kThreadCounts[] = {2, 4, 8};
constexpr unsigned kShardBits[] = {1, 4};

core::LoopDetectorConfig parallel_config(unsigned threads, unsigned bits) {
  core::LoopDetectorConfig config;
  config.parallel.num_threads = threads;
  config.parallel.shard_bits = bits;
  return config;
}

void expect_all_parallel_variants_match(const net::Trace& trace) {
  const auto serial = core::detect_loops(trace);
  for (const unsigned threads : kThreadCounts) {
    for (const unsigned bits : kShardBits) {
      SCOPED_TRACE("num_threads=" + std::to_string(threads) +
                   " shard_bits=" + std::to_string(bits));
      const auto parallel =
          core::detect_loops(trace, parallel_config(threads, bits));
      expect_equal_results(serial, parallel);
    }
  }
}

// The tentpole guarantee: on simulator-generated Backbone traces (real
// transient loops, full traffic mix) the parallel pipeline is
// shard-count-invariant and thread-count-invariant across >= 5 seeds.
TEST(ParallelPipeline, DifferentialOnBackboneTracesAcrossSeeds) {
  for (const std::uint64_t seed : {1u, 7u, 42u, 1234u, 99991u}) {
    auto spec = scenarios::backbone_spec(1 + static_cast<int>(seed % 4));
    spec.seed = seed;
    spec.duration = 45 * net::kSecond;
    spec.igp_events = 2;
    spec.bgp_events = 5;
    SCOPED_TRACE("seed=" + std::to_string(seed) + " scenario=" +
                 std::to_string(spec.index));
    auto run = scenarios::build_backbone(spec);
    scenarios::execute(*run);
    expect_all_parallel_variants_match(run->trace());
  }
}

// Adversarial synthetic trace: interleaved streams, equal-TTL duplicates,
// timeout splits, TTL increases (IP-ID reuse) and malformed records, all of
// which exercise the per-key state machine's edge transitions.
TEST(ParallelPipeline, DifferentialOnAdversarialSyntheticTrace) {
  TraceBuilder builder;
  const net::Ipv4Addr dst_a(203, 0, 113, 10);
  const net::Ipv4Addr dst_b(198, 18, 5, 20);
  // Two long interleaved streams.
  builder.replica_stream(0, dst_a, 64, 7, 12, 2, net::kMillisecond);
  builder.replica_stream(500, dst_b, 128, 9, 20, 3, 2 * net::kMillisecond);
  // Equal-TTL link-layer duplicates.
  builder.packet(5 * net::kMillisecond, dst_a, 60, 77);
  builder.packet(6 * net::kMillisecond, dst_a, 60, 77);
  // Timeout split: same key far apart.
  builder.replica_stream(net::kSecond, dst_b, 64, 11, 4, 2,
                         net::kMillisecond);
  builder.replica_stream(30 * net::kSecond, dst_b, 64, 11, 4, 2,
                         net::kMillisecond);
  // TTL increase (retransmission) mid-stream.
  builder.packet(40 * net::kSecond, dst_a, 30, 13);
  builder.packet(40 * net::kSecond + 1000, dst_a, 28, 13);
  builder.packet(40 * net::kSecond + 2000, dst_a, 64, 13);
  builder.packet(40 * net::kSecond + 3000, dst_a, 62, 13);
  // Healthy cross-traffic to a third prefix, plus malformed records.
  for (int i = 0; i < 200; ++i) {
    builder.packet(i * 137 * net::kMicrosecond, net::Ipv4Addr(192, 0, 2, 1),
                   64, static_cast<std::uint16_t>(i));
  }
  builder.raw(12 * net::kMillisecond, std::vector<std::byte>(9));
  builder.raw(13 * net::kMillisecond, std::vector<std::byte>(31));
  expect_all_parallel_variants_match(builder.trace());
}

// Degenerate shard/thread shapes: more shards than streams, more threads
// than hardware contexts, single shard under many threads.
TEST(ParallelPipeline, DegenerateShapesStillMatchSerial) {
  TraceBuilder builder;
  builder.replica_stream(0, net::Ipv4Addr(203, 0, 113, 10), 64, 7, 6, 2,
                         net::kMillisecond);
  const auto serial = core::detect_loops(builder.trace());
  const std::array<std::pair<unsigned, unsigned>, 3> shapes{
      {{2, 0}, {16, 1}, {3, 8}}};
  for (const auto& [threads, bits] : shapes) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads) +
                 " shard_bits=" + std::to_string(bits));
    const auto parallel =
        core::detect_loops(builder.trace(), parallel_config(threads, bits));
    expect_equal_results(serial, parallel);
  }
}

TEST(ParallelPipeline, EmptyTrace) {
  net::Trace trace("empty", 0);
  const auto result = core::detect_loops(trace, parallel_config(4, 4));
  EXPECT_EQ(result.total_records, 0u);
  EXPECT_TRUE(result.raw_streams.empty());
  EXPECT_TRUE(result.loops.empty());
}

// A body that fails after the barrier must not hang the fan-out or poison
// the workspace: the allocation failure surfaces as std::bad_alloc from
// detect_loops(), and a rerun on the same workspace matches serial. A fresh
// workspace makes the first arena chunk and the first open-table growth
// happen inside a body's feed scan — at one thread, in body 0 on the
// calling thread.
TEST(ParallelPipeline, AllocationFailureInBodyThrowsAndWorkspaceRecovers) {
#if !defined(RLOOP_FAILPOINTS)
  GTEST_SKIP() << "failpoint sites compiled out (-DRLOOP_FAILPOINTS=OFF)";
#else
  auto spec = scenarios::backbone_spec(1);
  spec.seed = 7;
  spec.duration = 20 * net::kSecond;
  auto run = scenarios::build_backbone(spec);
  scenarios::execute(*run);
  const net::Trace& trace = run->trace();
  const auto serial = core::detect_loops(trace);

  auto& failpoints = util::FailpointRegistry::instance();
  for (const unsigned threads : {1u, 4u}) {
    for (const char* site : {"arena.alloc", "flat_map.grow"}) {
      SCOPED_TRACE(std::string(site) +
                   " num_threads=" + std::to_string(threads));
      core::PipelineWorkspace workspace;
      auto config = parallel_config(threads, 4);
      config.workspace = &workspace;
      std::string error;
      ASSERT_TRUE(failpoints.arm(site, "trip@nth:1", &error)) << error;
      EXPECT_THROW((void)core::detect_loops(trace, config), std::bad_alloc);
      failpoints.disarm_all();
      expect_equal_results(serial, core::detect_loops(trace, config));
    }
  }
#endif
}

// replica_key_hash (the shard-assignment fast path) must agree with the hash
// of the materialized key for arbitrary byte lengths, or records of one key
// could land in different shards and split a stream.
TEST(ParallelPipeline, ReplicaKeyHashMatchesMaterializedKey) {
  util::Rng rng(23);
  for (int trial = 0; trial < 5000; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 48));
    std::vector<std::byte> bytes(n);
    for (auto& b : bytes) b = static_cast<std::byte>(rng.next_u64());
    EXPECT_EQ(core::replica_key_hash(bytes), core::make_replica_key(bytes).hash);
  }
}

// run() gives every body its own thread — body 0 the caller's — which is
// what lets the pipeline's bodies wait for one another at a barrier.
TEST(ThreadPool, RunGivesEveryBodyItsOwnThread) {
  constexpr std::size_t kBodies = 4;
  util::ThreadPool pool(kBodies - 1);
  for (int round = 0; round < 50; ++round) {
    std::array<std::thread::id, kBodies> ran_on{};
    std::atomic<std::size_t> arrived{0};
    pool.run([&](std::size_t i) {
      ran_on[i] = std::this_thread::get_id();
      // Deadlocks unless all bodies run at once.
      arrived.fetch_add(1);
      while (arrived.load() < kBodies) std::this_thread::yield();
    });
    EXPECT_EQ(ran_on[0], std::this_thread::get_id());
    for (std::size_t i = 0; i < kBodies; ++i) {
      for (std::size_t j = i + 1; j < kBodies; ++j) {
        EXPECT_NE(ran_on[i], ran_on[j]) << i << " " << j;
      }
    }
  }
}

TEST(ThreadPool, NoWorkersRunsTheOneBodyOnTheCaller) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  std::thread::id ran_on;
  pool.run([&](std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, RunPropagatesExceptions) {
  util::ThreadPool pool(2);
  for (const std::size_t failing : {0u, 2u}) {
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.run([&](std::size_t i) {
                   ++ran;
                   if (i == failing) throw std::runtime_error("body failed");
                 }),
                 std::runtime_error)
        << failing;
    EXPECT_EQ(ran.load(), 3) << failing;  // every body still ran
  }
  // The pool must remain usable after a failed fan-out.
  std::atomic<int> count{0};
  pool.run([&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, TaskCounterCountsBodies) {
  telemetry::Registry registry;
  util::ThreadPool pool(2);
  pool.set_telemetry(&registry);
  for (int i = 0; i < 4; ++i) pool.run([](std::size_t) {});
  pool.set_telemetry(nullptr);
  pool.run([](std::size_t) {});  // detached: not counted
  EXPECT_EQ(registry.counter("rloop_threadpool_tasks_total")->value(), 12u);
}

// The sharded path under a live registry must register per-shard latency
// histograms and still produce identical results (telemetry must never
// influence detection).
TEST(ParallelPipeline, PerShardTelemetryRegisteredAndHarmless) {
  TraceBuilder builder;
  builder.replica_stream(0, net::Ipv4Addr(203, 0, 113, 10), 64, 7, 8, 2,
                         net::kMillisecond);
  const auto serial = core::detect_loops(builder.trace());

  telemetry::Registry registry;
  auto config = parallel_config(4, 2);
  config.registry = &registry;
  const auto parallel = core::detect_loops(builder.trace(), config);
  expect_equal_results(serial, parallel);

  std::size_t shard_histograms = 0;
  std::size_t busy_counters = 0;
  std::size_t idle_counters = 0;
  double pool_tasks = -1.0;
  for (const auto& m : registry.snapshot()) {
    if (m.name == "rloop_threadpool_tasks_total") pool_tasks = m.value;
    if (m.name == "rloop_pipeline_shard_latency_ns") {
      const telemetry::LabelSet want = {
          {"shard", std::to_string(shard_histograms)}, {"stage", "detect"}};
      EXPECT_EQ(m.labels, want);
      ++shard_histograms;
    }
    if (m.name == "rloop_pipeline_stage_busy_ns_total") ++busy_counters;
    if (m.name == "rloop_pipeline_stage_idle_ns_total") ++idle_counters;
  }
  // 4 shards x the one sharded stage (detect); validate and merge run once.
  EXPECT_EQ(shard_histograms, 4u);
  // Stage occupancy, surfaced through the existing registry — no new
  // endpoint: busy for ingest (parse) and detect, idle only for ingest
  // (the barrier wait); the detect phase never waits.
  EXPECT_EQ(busy_counters, 2u);
  EXPECT_EQ(idle_counters, 1u);
  // A run is exactly one fan-out: one pool task per body (4 threads) plus
  // the caller's, which keeps the stage spans. Any further run() shows
  // here, and a fan-out allocates nothing.
  EXPECT_EQ(pool_tasks, 5.0);
}

// A workspace kept across calls must not carry one call's telemetry into
// the next. Here the second registry is a new object at the first one's
// address (std::optional storage is inline), so a pool kept by comparing
// sink pointers would still point at the destroyed registry's counters.
// Each registry must see its own run's pool tasks, and the two runs are
// identical, so the counts must match.
TEST(ParallelPipeline, WorkspaceReusedWithNewRegistryAtSameAddress) {
  TraceBuilder builder;
  builder.replica_stream(0, net::Ipv4Addr(203, 0, 113, 10), 64, 7, 8, 2,
                         net::kMillisecond);
  core::PipelineWorkspace workspace;
  auto config = parallel_config(3, 4);
  config.workspace = &workspace;

  const auto pool_tasks = [](const telemetry::Registry& registry) {
    for (const auto& m : registry.snapshot()) {
      if (m.name == "rloop_threadpool_tasks_total") return m.value;
    }
    return -1.0;  // never registered
  };

  std::optional<telemetry::Registry> registry;
  registry.emplace();
  config.registry = &*registry;
  (void)core::detect_loops(builder.trace(), config);
  const double first = pool_tasks(*registry);

  registry.reset();
  registry.emplace();
  config.registry = &*registry;
  (void)core::detect_loops(builder.trace(), config);
  const double second = pool_tasks(*registry);

  EXPECT_GT(first, 0.0);
  EXPECT_EQ(second, first);
}

}  // namespace
}  // namespace rloop
