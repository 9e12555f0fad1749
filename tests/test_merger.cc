#include "core/stream_merger.h"

#include <gtest/gtest.h>

#include "core/stream_validator.h"
#include "trace_builder.h"

namespace rloop::core {
namespace {

using net::Ipv4Addr;
using rloop::testing::TraceBuilder;

const Ipv4Addr kDst(203, 0, 113, 10);
const Ipv4Addr kSamePrefix(203, 0, 113, 77);
const Ipv4Addr kOtherDst(198, 18, 5, 20);

std::vector<RoutingLoop> run_pipeline(TraceBuilder& builder,
                                      MergerConfig cfg = {}) {
  const auto records = parse_trace(builder.trace());
  const auto raw = ReplicaDetector(ReplicaDetectorConfig{})
                       .detect(RecordStore::build(builder.trace()));
  const auto valid = StreamValidator(ValidatorConfig{}).validate(records, raw);
  return StreamMerger(cfg).merge(records, valid);
}

TEST(StreamMerger, SingleStreamSingleLoop) {
  TraceBuilder builder;
  builder.replica_stream(1000, kDst, 60, 7, 5, 2, net::kMillisecond);
  const auto loops = run_pipeline(builder);
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].prefix24, net::Prefix::slash24(kDst));
  EXPECT_EQ(loops[0].stream_count(), 1u);
  EXPECT_EQ(loops[0].replica_count, 5u);
  EXPECT_EQ(loops[0].ttl_delta, 2);
}

TEST(StreamMerger, OverlappingStreamsMerge) {
  TraceBuilder builder;
  // Two packets looping concurrently to the same /24.
  for (int i = 0; i < 5; ++i) {
    const auto t = i * 2 * net::kMillisecond;
    builder.packet(t, kDst, static_cast<std::uint8_t>(60 - 2 * i), 7);
    builder.packet(t + net::kMillisecond, kSamePrefix,
                   static_cast<std::uint8_t>(58 - 2 * i), 9);
  }
  const auto loops = run_pipeline(builder);
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].stream_count(), 2u);
  EXPECT_EQ(loops[0].replica_count, 10u);
}

TEST(StreamMerger, NearbyStreamsMergeAcrossQuietGap) {
  TraceBuilder builder;
  builder.replica_stream(0, kDst, 60, 7, 5, 2, net::kMillisecond);
  // 20 s of silence on this prefix, then the loop's next victim.
  builder.replica_stream(20 * net::kSecond, kSamePrefix, 60, 9, 5, 2,
                         net::kMillisecond);
  const auto loops = run_pipeline(builder);
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].stream_count(), 2u);
  EXPECT_GE(loops[0].duration(), 20 * net::kSecond);
}

TEST(StreamMerger, HealthyPacketInGapPreventsMerge) {
  TraceBuilder builder;
  builder.replica_stream(0, kDst, 60, 7, 5, 2, net::kMillisecond);
  // The prefix demonstrably worked in between.
  builder.packet(10 * net::kSecond, kSamePrefix, 64, 50);
  builder.replica_stream(20 * net::kSecond, kSamePrefix, 60, 9, 5, 2,
                         net::kMillisecond);
  const auto loops = run_pipeline(builder);
  EXPECT_EQ(loops.size(), 2u);
}

TEST(StreamMerger, GapBeyondWindowPreventsMerge) {
  TraceBuilder builder;
  builder.replica_stream(0, kDst, 60, 7, 5, 2, net::kMillisecond);
  builder.replica_stream(90 * net::kSecond, kSamePrefix, 60, 9, 5, 2,
                         net::kMillisecond);
  const auto loops = run_pipeline(builder);  // default 60 s merge gap
  EXPECT_EQ(loops.size(), 2u);

  MergerConfig wide;
  wide.merge_gap = 2 * net::kMinute;
  EXPECT_EQ(run_pipeline(builder, wide).size(), 1u);
}

TEST(StreamMerger, DifferentPrefixesNeverMerge) {
  TraceBuilder builder;
  builder.replica_stream(0, kDst, 60, 7, 5, 2, net::kMillisecond);
  builder.replica_stream(100, kOtherDst, 60, 9, 5, 2, net::kMillisecond);
  const auto loops = run_pipeline(builder);
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_NE(loops[0].prefix24, loops[1].prefix24);
}

TEST(StreamMerger, LoopTtlDeltaIsModeOfStreams) {
  TraceBuilder builder;
  // Three overlapping streams: deltas 2, 2, 3.
  builder.replica_stream(0, kDst, 60, 1, 4, 2, net::kMillisecond);
  builder.replica_stream(100, Ipv4Addr(203, 0, 113, 11), 60, 2, 4, 2,
                         net::kMillisecond);
  builder.replica_stream(200, Ipv4Addr(203, 0, 113, 12), 60, 3, 4, 3,
                         net::kMillisecond);
  const auto loops = run_pipeline(builder);
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].ttl_delta, 2);
}

TEST(StreamMerger, LoopsSortedByPrefixThenTime) {
  TraceBuilder builder;
  builder.replica_stream(0, kOtherDst, 60, 1, 4, 2, net::kMillisecond);
  builder.replica_stream(net::kSecond, kDst, 60, 2, 4, 2, net::kMillisecond);
  builder.packet(100 * net::kSecond, kOtherDst, 64, 99);  // break any merge
  builder.replica_stream(200 * net::kSecond, kOtherDst, 60, 3, 4, 2,
                         net::kMillisecond);
  const auto loops = run_pipeline(builder);
  ASSERT_EQ(loops.size(), 3u);
  EXPECT_LE(loops[0].prefix24, loops[1].prefix24);
  EXPECT_LE(loops[1].prefix24, loops[2].prefix24);
}

TEST(StreamMerger, EmptyInputEmptyOutput) {
  TraceBuilder builder;
  builder.packet(0, kDst, 64, 1);
  EXPECT_TRUE(run_pipeline(builder).empty());
}

}  // namespace
}  // namespace rloop::core
