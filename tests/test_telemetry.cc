#include "telemetry/registry.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/loop_detector.h"
#include "json_lite.h"
#include "telemetry/counter.h"
#include "telemetry/exporter.h"
#include "trace_builder.h"

namespace rloop::telemetry {
namespace {

using net::Ipv4Addr;
using rloop::testing::TraceBuilder;

TEST(Counter, IncrementsMonotonically) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAddSub) {
  Gauge g;
  g.set(10);
  g.add(5);
  g.sub(7);
  EXPECT_EQ(g.value(), 8);
  g.set(-3);
  EXPECT_EQ(g.value(), -3);
}

TEST(Histogram, PlacesObservationsInBuckets) {
  Histogram h({10.0, 100.0, 1000.0});
  h.observe(5);     // <= 10
  h.observe(10);    // <= 10 (boundary is inclusive)
  h.observe(50);    // <= 100
  h.observe(5000);  // overflow
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 0u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 5065.0);
}

TEST(Histogram, ExponentialBounds) {
  const auto bounds = exponential_bounds(1.0, 10.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[3], 1000.0);
}

TEST(Registry, RejectsUnsortedHistogramBounds) {
  Registry reg;
  EXPECT_THROW(reg.histogram("h", {3.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("h", {1.0, 1.0}), std::invalid_argument);
}

TEST(Registry, SameIdentityReturnsSamePointer) {
  Registry reg;
  Counter* a = reg.counter("rloop_test_total", {{"x", "1"}, {"y", "2"}});
  // Label order must not matter.
  Counter* b = reg.counter("rloop_test_total", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(a, b);
  Counter* c = reg.counter("rloop_test_total", {{"x", "1"}, {"y", "3"}});
  EXPECT_NE(a, c);
  Counter* d = reg.counter("rloop_test_total");
  EXPECT_NE(a, d);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(Registry, TypeConflictThrows) {
  Registry reg;
  reg.counter("rloop_test_total");
  EXPECT_THROW(reg.gauge("rloop_test_total"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("rloop_test_total", {1.0}),
               std::invalid_argument);
}

TEST(Registry, NullHelpersAreNoOps) {
  EXPECT_EQ(get_counter(nullptr, "x"), nullptr);
  EXPECT_EQ(get_gauge(nullptr, "x"), nullptr);
  EXPECT_EQ(get_histogram(nullptr, "x", {1.0}), nullptr);
  // Updating through null pointers must be safe.
  inc(nullptr);
  set(nullptr, 7);
  observe(nullptr, 1.0);
  { ScopedTimer t(nullptr); }
}

TEST(Registry, ConcurrentIncrementsAreExact) {
  Registry reg;
  Counter* c = reg.counter("rloop_concurrent_total");
  Histogram* h = reg.histogram("rloop_concurrent_ns", {100.0});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c->inc();
        h->observe(50.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->bucket(0), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(h->sum(), 50.0 * kThreads * kPerThread);
}

TEST(ScopedTimer, RecordsElapsedNanoseconds) {
  Registry reg;
  Histogram* h = reg.histogram("rloop_timer_ns", latency_bounds_ns());
  { ScopedTimer t(h); }
  EXPECT_EQ(h->count(), 1u);
  EXPECT_GT(h->sum(), 0.0);
}

TEST(Exporter, PrometheusGolden) {
  Registry reg;
  reg.counter("rloop_a_total", {}, "things counted")->inc(3);
  reg.gauge("rloop_b", {{"kind", "x"}})->set(-2);
  Histogram* h = reg.histogram("rloop_c_ns", {10.0, 100.0}, {}, "latencies");
  h->observe(5);
  h->observe(50);
  h->observe(500);

  const std::string expected =
      "# HELP rloop_a_total things counted\n"
      "# TYPE rloop_a_total counter\n"
      "rloop_a_total 3\n"
      "# TYPE rloop_b gauge\n"
      "rloop_b{kind=\"x\"} -2\n"
      "# HELP rloop_c_ns latencies\n"
      "# TYPE rloop_c_ns histogram\n"
      "rloop_c_ns_bucket{le=\"10\"} 1\n"
      "rloop_c_ns_bucket{le=\"100\"} 2\n"
      "rloop_c_ns_bucket{le=\"+Inf\"} 3\n"
      "rloop_c_ns_sum 555\n"
      "rloop_c_ns_count 3\n";
  EXPECT_EQ(to_prometheus(reg.snapshot()), expected);
}

// Regression: backslash, double-quote and newline in label values (and
// backslash/newline in HELP text) must be escaped per the exposition format,
// or the emitted line — and every line after it — is unparseable.
TEST(Exporter, PrometheusEscapesLabelValuesAndHelp) {
  Registry reg;
  reg.counter("rloop_esc_total", {{"path", "C:\\dir\n\"quoted\""}},
              "line one\nline \\two")
      ->inc();
  const std::string expected =
      "# HELP rloop_esc_total line one\\nline \\\\two\n"
      "# TYPE rloop_esc_total counter\n"
      "rloop_esc_total{path=\"C:\\\\dir\\n\\\"quoted\\\"\"} 1\n";
  EXPECT_EQ(to_prometheus(reg.snapshot()), expected);
  // Histogram label rendering goes through a second code path (`le` append).
  Registry reg2;
  reg2.histogram("rloop_esc_ns", {10.0}, {{"q", "a\"b"}})->observe(5);
  const std::string prom = to_prometheus(reg2.snapshot());
  EXPECT_NE(prom.find("q=\"a\\\"b\""), std::string::npos) << prom;
}

// Label values reach to_json unfiltered (paths, scenario names); a raw
// control character in one would make the whole snapshot unparseable.
TEST(Exporter, JsonEscapesControlCharactersInLabels) {
  for (const char* value : {"cr\r", "soh\x01", "us\x1f", "tab\t", "nl\n"}) {
    SCOPED_TRACE(value);
    Registry reg;
    reg.counter("rloop_esc_total", {{"path", value}})->inc();
    const std::string json = to_json(reg.snapshot());
    std::string error;
    EXPECT_TRUE(rloop::testing::is_valid_json(json, &error)) << error << json;
  }
}

TEST(Exporter, JsonGolden) {
  Registry reg;
  reg.counter("rloop_a_total")->inc(3);
  Histogram* h = reg.histogram("rloop_c_ns", {10.0});
  h->observe(5);

  const std::string expected =
      "[\n"
      "  {\"name\":\"rloop_a_total\",\"type\":\"counter\",\"value\":3},\n"
      "  {\"name\":\"rloop_c_ns\",\"type\":\"histogram\",\"count\":1,"
      "\"sum\":5,\"bounds\":[10],\"buckets\":[1,0]}\n"
      "]\n";
  EXPECT_EQ(to_json(reg.snapshot()), expected);
}

TEST(Exporter, PeriodicPumpFiresPerInterval) {
  Registry reg;
  reg.counter("rloop_a_total")->inc();
  int fired = 0;
  PeriodicExporter exporter(&reg, net::kSecond,
                            PeriodicExporter::Format::prometheus,
                            [&fired](const std::string& text) {
                              ++fired;
                              EXPECT_NE(text.find("rloop_a_total"),
                                        std::string::npos);
                            });
  EXPECT_FALSE(exporter.pump(0));  // anchors the phase, no export
  EXPECT_FALSE(exporter.pump(net::kSecond / 2));
  EXPECT_TRUE(exporter.pump(net::kSecond));
  EXPECT_FALSE(exporter.pump(net::kSecond + 1));  // re-anchored on fire
  EXPECT_TRUE(exporter.pump(5 * net::kSecond));   // one export per pump
  EXPECT_EQ(fired, 2);
  exporter.flush(5 * net::kSecond);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(exporter.exports(), 3u);
}

// End-to-end: the offline pipeline with a registry attached reports every
// stage timer and the replica/stream counters.
TEST(PipelineTelemetry, DetectLoopsPopulatesRegistry) {
  TraceBuilder builder;
  builder.replica_stream(0, Ipv4Addr(203, 0, 113, 10), 60, 7, 6, 2,
                         net::kMillisecond);
  builder.replica_stream(net::kSecond, Ipv4Addr(203, 0, 113, 10), 60, 8, 2, 2,
                         net::kMillisecond);  // too small: rejected
  for (int i = 0; i < 50; ++i) {
    builder.packet(i * 1000, Ipv4Addr(198, 18, 5, 1), 64,
                   static_cast<std::uint16_t>(i));
  }

  // Every thread count records the same stage series.
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    Registry reg;
    core::LoopDetectorConfig config;
    config.registry = &reg;
    config.parallel.num_threads = threads;
    const auto result = core::detect_loops(builder.trace(), config);
    ASSERT_EQ(result.loops.size(), 1u);

    for (const char* stage : {"parse", "detect", "validate", "merge"}) {
      Histogram* h = reg.histogram("rloop_pipeline_stage_latency_ns",
                                   latency_bounds_ns(), {{"stage", stage}});
      EXPECT_EQ(h->count(), 1u) << stage;
      EXPECT_GT(h->sum(), 0.0) << stage;
    }
    // The same occupancy series, and one detect-latency series per shard
    // (one shard at one thread, 2^shard_bits otherwise).
    std::size_t busy = 0, idle = 0, shards = 0;
    for (const auto& m : reg.snapshot()) {
      if (m.name == "rloop_pipeline_stage_busy_ns_total") ++busy;
      if (m.name == "rloop_pipeline_stage_idle_ns_total") ++idle;
      if (m.name == "rloop_pipeline_shard_latency_ns") ++shards;
    }
    EXPECT_EQ(busy, 2u);  // ingest, detect
    EXPECT_EQ(idle, 1u);  // ingest
    EXPECT_EQ(shards, config.parallel.num_shards());
    EXPECT_EQ(reg.counter("rloop_detector_records_total")->value(),
              builder.size());
    EXPECT_EQ(reg.counter("rloop_detector_replicas_matched_total")->value(),
              6u);  // 5 in the big stream + 1 in the small one
    EXPECT_GT(reg.counter("rloop_detector_streams_opened_total")->value(), 0u);
    EXPECT_EQ(reg.counter("rloop_detector_streams_emitted_total")->value(), 2u);
    EXPECT_EQ(reg.counter("rloop_validator_streams_accepted_total")->value(),
              1u);
    EXPECT_EQ(reg.counter("rloop_validator_streams_rejected_total",
                          {{"reason", "too_small"}})
                  ->value(),
              1u);
    EXPECT_EQ(reg.counter("rloop_merger_loops_total")->value(), 1u);
    EXPECT_EQ(reg.histogram("rloop_detector_replica_spacing_ns",
                            spacing_bounds_ns())
                  ->count(),
              6u);
    // The second run over the same registry accumulates.
    core::detect_loops(builder.trace(), config);
    EXPECT_EQ(reg.counter("rloop_merger_loops_total")->value(), 2u);
  }
}

}  // namespace
}  // namespace rloop::telemetry
