#include "core/stream_validator.h"

#include <gtest/gtest.h>

#include "trace_builder.h"

namespace rloop::core {
namespace {

using net::Ipv4Addr;
using rloop::testing::TraceBuilder;

const Ipv4Addr kDst(203, 0, 113, 10);
const Ipv4Addr kSamePrefix(203, 0, 113, 200);  // same /24 as kDst
const Ipv4Addr kOtherPrefix(198, 18, 5, 20);

struct ValidationRun {
  std::vector<ReplicaStream> valid;
  ValidationStats stats;
};

ValidationRun validate(TraceBuilder& builder, ValidatorConfig cfg = {}) {
  const auto records = parse_trace(builder.trace());
  const auto raw = ReplicaDetector(ReplicaDetectorConfig{})
                       .detect(RecordStore::build(builder.trace()));
  ValidationRun run;
  run.valid = StreamValidator(cfg).validate(records, raw, &run.stats);
  return run;
}

TEST(StreamValidator, AcceptsCleanStream) {
  TraceBuilder builder;
  builder.replica_stream(1000, kDst, 60, 7, 10, 2, net::kMillisecond);
  const auto run = validate(builder);
  ASSERT_EQ(run.valid.size(), 1u);
  EXPECT_EQ(run.stats.accepted, 1u);
  EXPECT_EQ(run.stats.input_streams, 1u);
}

TEST(StreamValidator, RejectsTwoElementStreams) {
  // Link-layer duplicate: two identical observations.
  TraceBuilder builder;
  builder.packet(0, kDst, 60, 7);
  builder.packet(500, kDst, 60, 7);
  const auto run = validate(builder);
  EXPECT_TRUE(run.valid.empty());
  EXPECT_EQ(run.stats.rejected_too_small, 1u);
}

TEST(StreamValidator, MinReplicasConfigurable) {
  TraceBuilder builder;
  builder.packet(0, kDst, 60, 7);
  builder.packet(500, kDst, 58, 7);  // genuine 2-replica loop evidence
  ValidatorConfig cfg;
  cfg.min_replicas = 2;
  EXPECT_EQ(validate(builder, cfg).valid.size(), 1u);
  cfg.min_replicas = 3;
  EXPECT_TRUE(validate(builder, cfg).valid.empty());
}

TEST(StreamValidator, RejectsStreamWithHealthyPrefixTraffic) {
  // A non-looped packet to the same /24 inside the stream interval refutes
  // the loop: the prefix's forwarding was demonstrably fine.
  TraceBuilder builder;
  builder.packet(0, kDst, 60, 7);
  builder.packet(2 * net::kMillisecond, kSamePrefix, 64, 99);  // healthy!
  builder.packet(4 * net::kMillisecond, kDst, 58, 7);
  builder.packet(8 * net::kMillisecond, kDst, 56, 7);
  const auto run = validate(builder);
  EXPECT_TRUE(run.valid.empty());
  EXPECT_EQ(run.stats.rejected_prefix_conflict, 1u);
}

TEST(StreamValidator, HealthyTrafficOutsideIntervalIsFine) {
  TraceBuilder builder;
  builder.packet(0, kSamePrefix, 64, 99);  // before the loop
  builder.replica_stream(net::kSecond, kDst, 60, 7, 5, 2, net::kMillisecond);
  builder.packet(10 * net::kSecond, kSamePrefix, 64, 100);  // after
  EXPECT_EQ(validate(builder).valid.size(), 1u);
}

TEST(StreamValidator, OtherPrefixTrafficDoesNotInterfere) {
  TraceBuilder builder;
  builder.packet(0, kDst, 60, 7);
  builder.packet(net::kMillisecond, kOtherPrefix, 64, 99);
  builder.packet(2 * net::kMillisecond, kDst, 58, 7);
  builder.packet(4 * net::kMillisecond, kDst, 56, 7);
  EXPECT_EQ(validate(builder).valid.size(), 1u);
}

TEST(StreamValidator, ConcurrentStreamsToSamePrefixSupportEachOther) {
  // Two looped packets to the same /24, overlapping in time: each is the
  // other's "all packets to the prefix loop" evidence.
  TraceBuilder builder;
  for (int i = 0; i < 5; ++i) {
    const auto t = i * 2 * net::kMillisecond;
    builder.packet(t, kDst, static_cast<std::uint8_t>(60 - 2 * i), 7);
    builder.packet(t + net::kMillisecond, kSamePrefix,
                   static_cast<std::uint8_t>(58 - 2 * i), 9);
  }
  const auto run = validate(builder);
  EXPECT_EQ(run.valid.size(), 2u);
  EXPECT_EQ(run.stats.rejected_prefix_conflict, 0u);
}

TEST(StreamValidator, RawTwoElementStreamStillCountsAsLooped) {
  // A 2-element stream is itself rejected, but its packets are replicas and
  // must not refute an overlapping valid stream on the same prefix.
  TraceBuilder builder;
  for (int i = 0; i < 5; ++i) {
    builder.packet(i * 2 * net::kMillisecond, kDst,
                   static_cast<std::uint8_t>(60 - 2 * i), 7);
  }
  // Overlapping 2-element stream to the same prefix (different packet).
  builder.packet(net::kMillisecond, kSamePrefix, 50, 11);
  builder.packet(3 * net::kMillisecond, kSamePrefix, 48, 11);
  const auto run = validate(builder);
  ASSERT_EQ(run.valid.size(), 1u);
  EXPECT_EQ(run.stats.rejected_too_small, 1u);
  EXPECT_EQ(run.stats.rejected_prefix_conflict, 0u);
}

}  // namespace
}  // namespace rloop::core
