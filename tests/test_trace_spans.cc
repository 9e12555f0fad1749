#include "telemetry/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/loop_detector.h"
#include "json_lite.h"
#include "sim/event_queue.h"
#include "trace_builder.h"
#include "util/thread_pool.h"

namespace rloop::telemetry {
namespace {

using net::Ipv4Addr;
using rloop::testing::is_valid_json;
using rloop::testing::TraceBuilder;

std::size_t count_substr(const std::string& haystack,
                         const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

std::size_t count_named(const std::vector<SpanEvent>& spans,
                        const std::string& name) {
  std::size_t count = 0;
  for (const auto& ev : spans) {
    if (name == ev.name) ++count;
  }
  return count;
}

TEST(ScopedSpan, RecordsNestingDepthAndContainment) {
  TraceSink sink;
  {
    const ScopedSpan outer(&sink, "outer");
    {
      const ScopedSpan inner(&sink, "inner", "sub");
    }
  }
  const auto spans = sink.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // snapshot() sorts by start time: outer opened first.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[0].tid, spans[1].tid);
  EXPECT_STREQ(spans[1].category, "sub");
  // The child interval nests inside the parent interval.
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[1].start_ns + spans[1].duration_ns,
            spans[0].start_ns + spans[0].duration_ns);
  EXPECT_GE(spans[0].duration_ns, spans[1].duration_ns);
}

TEST(ScopedSpan, NullSinkIsInertAndKeepsDepthClean) {
  {
    const ScopedSpan a(nullptr, "ghost");
    const ScopedSpan b(nullptr, "ghost2");
  }
  // Null spans must not have touched the depth bookkeeping: a real span
  // opened afterwards (even nested lexically inside null ones) is top-level.
  TraceSink sink;
  {
    const ScopedSpan ghost(nullptr, "ghost");
    const ScopedSpan real(&sink, "real");
  }
  const auto spans = sink.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].depth, 0u);
}

TEST(TraceSink, DropsNewSpansWhenFullAndCounts) {
  TraceSink sink(4);
  for (int i = 0; i < 10; ++i) {
    const ScopedSpan span(&sink, "s");
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.capacity(), 4u);
  EXPECT_EQ(sink.dropped(), 6u);
}

TEST(TraceSink, ChromeTraceJsonIsValidAndComplete) {
  TraceSink sink;
  {
    const ScopedSpan outer(&sink, "stage \"one\"\n");  // needs escaping
    const ScopedSpan inner(&sink, "task");
  }
  const std::string json = sink.chrome_trace_json();
  std::string error;
  EXPECT_TRUE(is_valid_json(json, &error)) << error << "\n" << json;
  EXPECT_EQ(count_substr(json, "\"ph\":\"X\""), 2u);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("stage \\\"one\\\"\\n"), std::string::npos);
}

TEST(TraceSink, ConcurrentEmissionFromPoolTasks) {
  TraceSink sink;
  constexpr std::size_t kTasks = 64;
  {
    util::ThreadPool pool(4, nullptr, &sink);
    pool.parallel_for(kTasks, [](std::size_t) {
      // Nothing: the pool itself emits one "task" span per body.
    });
  }
  const auto spans = sink.snapshot();
  ASSERT_EQ(spans.size(), kTasks);
  for (const auto& ev : spans) {
    EXPECT_STREQ(ev.name, "task");
    EXPECT_STREQ(ev.category, "task");
    EXPECT_GE(ev.duration_ns, 0);
  }
  std::string error;
  EXPECT_TRUE(is_valid_json(sink.chrome_trace_json(), &error)) << error;
}

net::Trace& looped_trace(TraceBuilder& builder) {
  builder.replica_stream(/*start=*/net::kSecond, Ipv4Addr(10, 1, 2, 3),
                         /*ttl0=*/60, /*ip_id=*/7, /*count=*/6, /*delta=*/2,
                         /*spacing=*/10 * net::kMillisecond);
  builder.packet(5 * net::kSecond, Ipv4Addr(10, 9, 9, 9), 64, 99);
  return builder.trace();
}

TEST(PipelineSpans, SerialRunEmitsRootAndStageSpans) {
  TraceBuilder builder;
  TraceSink sink;
  core::LoopDetectorConfig config;
  config.trace = &sink;
  const auto result = core::detect_loops(looped_trace(builder), config);
  EXPECT_EQ(result.loops.size(), 1u);

  const auto spans = sink.snapshot();
  EXPECT_EQ(count_named(spans, "detect_loops"), 1u);
  for (const char* stage : {"parse", "detect", "validate", "merge"}) {
    EXPECT_EQ(count_named(spans, stage), 1u) << stage;
  }
  // Stages nest inside the root span.
  for (const auto& ev : spans) {
    if (std::string(ev.name) == "detect_loops") {
      EXPECT_EQ(ev.depth, 0u);
    } else {
      EXPECT_EQ(ev.depth, 1u) << ev.name;
    }
  }
}

TEST(PipelineSpans, ParallelRunEmitsPerShardTaskSpans) {
  TraceBuilder builder;
  TraceSink sink;
  core::LoopDetectorConfig config;
  config.trace = &sink;
  config.parallel.num_threads = 4;
  config.parallel.shard_bits = 2;  // 4 shards
  const auto result = core::detect_loops(looped_trace(builder), config);
  EXPECT_EQ(result.loops.size(), 1u);

  const auto spans = sink.snapshot();
  ASSERT_EQ(count_named(spans, "detect_loops"), 1u);
  EXPECT_EQ(count_named(spans, "detect_shard"), 4u);
  EXPECT_EQ(count_named(spans, "parse_chunk"), 4u);  // one per pool body
  EXPECT_EQ(count_named(spans, "mark_shards"), 4u);  // one per owning body
  EXPECT_GE(count_named(spans, "detect_chunk"), 1u);
  // Validate and merge run once, on the calling thread, through the tail
  // the serial path runs: no per-shard task spans.
  EXPECT_EQ(count_named(spans, "validate_shard"), 0u);
  EXPECT_EQ(count_named(spans, "merge_shard"), 0u);
  EXPECT_EQ(count_named(spans, "validate"), 1u);
  EXPECT_EQ(count_named(spans, "merge"), 1u);
  const SpanEvent* root = nullptr;
  for (const auto& ev : spans) {
    if (std::string(ev.name) == "detect_loops") root = &ev;
  }
  for (const auto& ev : spans) {
    const std::string name = ev.name;
    // Worker-side spans are top level on their own threads (depth 0).
    if (name == "detect_shard") {
      EXPECT_EQ(ev.depth, 0u);
    }
    // The validate and merge stages nest directly under the root span.
    if (name == "validate" || name == "merge") {
      EXPECT_EQ(ev.depth, 1u) << name;
      EXPECT_EQ(ev.tid, root->tid) << name;
      EXPECT_GE(ev.start_ns, root->start_ns) << name;
      EXPECT_LE(ev.start_ns + ev.duration_ns,
                root->start_ns + root->duration_ns)
          << name;
    }
  }
  std::string error;
  EXPECT_TRUE(is_valid_json(sink.chrome_trace_json(), &error)) << error;
}

TEST(EventQueueSpans, DispatchedEventsAreTraced) {
  TraceSink sink;
  sim::EventQueue queue;
  queue.attach_trace(&sink);
  int fired = 0;
  queue.schedule(10, [&] { ++fired; });
  queue.schedule(20, [&] { ++fired; });
  queue.run_all();
  EXPECT_EQ(fired, 2);
  const auto spans = sink.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  for (const auto& ev : spans) {
    EXPECT_STREQ(ev.name, "event");
    EXPECT_STREQ(ev.category, "sim");
  }
}

TEST(TraceThreadId, StableWithinAThread) {
  const auto a = trace_thread_id();
  const auto b = trace_thread_id();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace rloop::telemetry
