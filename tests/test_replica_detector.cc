#include "core/replica_detector.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/metrics.h"
#include "trace_builder.h"

namespace rloop::core {
namespace {

using net::Ipv4Addr;
using rloop::testing::TraceBuilder;

const Ipv4Addr kDst(203, 0, 113, 10);
const Ipv4Addr kOtherDst(198, 18, 5, 20);

std::vector<ReplicaStream> detect(TraceBuilder& builder,
                                  ReplicaDetectorConfig cfg = {}) {
  return ReplicaDetector(cfg).detect(RecordStore::build(builder.trace()));
}

TEST(ReplicaDetector, FindsBasicStream) {
  TraceBuilder builder;
  builder.replica_stream(1000, kDst, 60, 7, /*count=*/10, /*delta=*/2,
                         /*spacing=*/net::kMillisecond);
  const auto streams = detect(builder);
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].size(), 10u);
  EXPECT_EQ(streams[0].dominant_ttl_delta(), 2);
  EXPECT_EQ(streams[0].dst, kDst);
  EXPECT_EQ(streams[0].dst24, net::Prefix::slash24(kDst));
  EXPECT_EQ(streams[0].duration(), 9 * net::kMillisecond);
  EXPECT_DOUBLE_EQ(streams[0].mean_spacing_ns(), 1e6);
}

TEST(ReplicaDetector, NormalTrafficYieldsNoStreams) {
  TraceBuilder builder;
  for (int i = 0; i < 200; ++i) {
    builder.packet(i * 1000, kDst, 60, static_cast<std::uint16_t>(i));
  }
  EXPECT_TRUE(detect(builder).empty());
}

TEST(ReplicaDetector, TtlDeltaOneIsNotAReplica) {
  // Delta 1 cannot come from a loop (a loop spans >= 2 routers). The
  // replica test is pairwise, so of 60/59/58 the 60-58 pair qualifies while
  // the intermediate 59 does not join any stream.
  TraceBuilder builder;
  builder.packet(0, kDst, 60, 7);
  builder.packet(1000, kDst, 59, 7);
  builder.packet(2000, kDst, 58, 7);
  const auto streams = detect(builder);
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].size(), 2u);
  EXPECT_EQ(streams[0].replicas[0].ttl, 60);
  EXPECT_EQ(streams[0].replicas[1].ttl, 58);
}

TEST(ReplicaDetector, MinTtlDeltaConfigurable) {
  TraceBuilder builder;
  builder.replica_stream(0, kDst, 60, 7, 5, /*delta=*/2, net::kMillisecond);
  ReplicaDetectorConfig cfg;
  cfg.min_ttl_delta = 2;
  const auto at2 = detect(builder, cfg);
  ASSERT_EQ(at2.size(), 1u);
  EXPECT_EQ(at2[0].size(), 5u);
  // With min delta 3, no consecutive pair qualifies, but pairwise matching
  // still chains every-other observation (deltas of 4).
  cfg.min_ttl_delta = 3;
  for (const auto& stream : detect(builder, cfg)) {
    for (int d : stream.ttl_deltas()) {
      EXPECT_GE(d, 3);
    }
  }
}

TEST(ReplicaDetector, LinkLayerDuplicatesFormTwoElementStreams) {
  // Identical packet twice (same TTL): the SONET-duplication case.
  TraceBuilder builder;
  builder.packet(0, kDst, 60, 7);
  builder.packet(500, kDst, 60, 7);
  const auto streams = detect(builder);
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].size(), 2u);
  EXPECT_EQ(streams[0].dominant_ttl_delta(), 0);  // no loop signature
}

TEST(ReplicaDetector, DuplicatesCanBeDisabled) {
  TraceBuilder builder;
  builder.packet(0, kDst, 60, 7);
  builder.packet(500, kDst, 60, 7);
  ReplicaDetectorConfig cfg;
  cfg.keep_link_layer_duplicates = false;
  EXPECT_TRUE(detect(builder, cfg).empty());
}

TEST(ReplicaDetector, TimeoutSplitsStreams) {
  TraceBuilder builder;
  builder.replica_stream(0, kDst, 60, 7, 4, 2, net::kMillisecond);
  // Same key again 30 s later (IP ID reuse): a separate stream.
  builder.replica_stream(30 * net::kSecond, kDst, 60, 7, 4, 2,
                         net::kMillisecond);
  ReplicaDetectorConfig cfg;
  cfg.stream_timeout = 10 * net::kSecond;
  const auto streams = detect(builder, cfg);
  ASSERT_EQ(streams.size(), 2u);
  EXPECT_EQ(streams[0].size(), 4u);
  EXPECT_EQ(streams[1].size(), 4u);
}

TEST(ReplicaDetector, TtlIncreaseStartsNewStream) {
  // Retransmission with identical bytes arriving with a HIGHER TTL is a new
  // original, not a replica.
  TraceBuilder builder;
  builder.packet(0, kDst, 30, 7);
  builder.packet(1000, kDst, 28, 7);   // replica (delta 2)
  builder.packet(2000, kDst, 64, 7);   // new original
  builder.packet(3000, kDst, 62, 7);   // its replica
  const auto streams = detect(builder);
  ASSERT_EQ(streams.size(), 2u);
  EXPECT_EQ(streams[0].replicas.front().ttl, 30);
  EXPECT_EQ(streams[1].replicas.front().ttl, 64);
}

TEST(ReplicaDetector, InterleavedStreamsSeparated) {
  TraceBuilder builder;
  // Two looped packets to different destinations, observations interleaved.
  for (int i = 0; i < 6; ++i) {
    builder.packet(i * 2000, kDst, static_cast<std::uint8_t>(60 - 2 * i), 7);
    builder.packet(i * 2000 + 1000, kOtherDst,
                   static_cast<std::uint8_t>(50 - 2 * i), 9);
  }
  const auto streams = detect(builder);
  ASSERT_EQ(streams.size(), 2u);
  EXPECT_EQ(streams[0].size(), 6u);
  EXPECT_EQ(streams[1].size(), 6u);
  EXPECT_NE(streams[0].dst, streams[1].dst);
}

TEST(ReplicaDetector, StreamsSortedByStartTime) {
  TraceBuilder builder;
  builder.replica_stream(5 * net::kSecond, kOtherDst, 60, 1, 3, 2,
                         net::kMillisecond);
  builder.replica_stream(6 * net::kSecond, kDst, 60, 2, 3, 2,
                         net::kMillisecond);
  const auto streams = detect(builder);
  ASSERT_EQ(streams.size(), 2u);
  EXPECT_LT(streams[0].start(), streams[1].start());
}

TEST(ReplicaDetector, MixedDeltasReportDominant) {
  TraceBuilder builder;
  // Deltas: 2, 2, 3, 2 -> dominant 2.
  builder.packet(0, kDst, 60, 7);
  builder.packet(1000, kDst, 58, 7);
  builder.packet(2000, kDst, 56, 7);
  builder.packet(3000, kDst, 53, 7);
  builder.packet(4000, kDst, 51, 7);
  const auto streams = detect(builder);
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].dominant_ttl_delta(), 2);
  EXPECT_EQ(streams[0].ttl_deltas(), (std::vector<int>{2, 2, 3, 2}));
}

TEST(ReplicaDetector, MalformedRecordsIgnored) {
  TraceBuilder builder;
  builder.replica_stream(0, kDst, 60, 7, 5, 2, net::kMillisecond);
  // Garbage bytes appended to the trace.
  builder.raw(10 * net::kMillisecond, std::vector<std::byte>(12));
  const auto streams = detect(builder);
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].size(), 5u);
}

TEST(ReplicaDetector, SweepPreservesLongQuietStreams) {
  // A stream with gaps below the timeout must survive the periodic sweep
  // even when tens of thousands of unrelated packets pass in between.
  TraceBuilder builder;
  builder.packet(0, kDst, 60, 7);
  net::TimeNs t = 1000;
  for (int i = 0; i < 70000; ++i) {
    // Vary the source with the IP ID epoch so 16-bit ID wraparound does not
    // produce accidental byte-identical packets.
    builder.packet(t, kOtherDst, 64, static_cast<std::uint16_t>(i),
                   net::Ipv4Addr(198, 51, 100,
                                 static_cast<std::uint8_t>(1 + (i >> 16))));
    t += 1000;
  }
  builder.packet(t + 1000, kDst, 58, 7);  // within timeout of the head
  ReplicaDetectorConfig cfg;
  cfg.stream_timeout = 10 * net::kSecond;
  const auto streams = detect(builder, cfg);
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].size(), 2u);
}

// Property sweep: any synthetic loop with delta in [2, 8] and count in
// [3, 40] is recovered exactly.
class ReplicaSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ReplicaSweep, RecoversExactStream) {
  const auto [delta, count] = GetParam();
  TraceBuilder builder;
  // Background noise.
  for (int i = 0; i < 50; ++i) {
    builder.packet(i * 100, kOtherDst, 64, static_cast<std::uint16_t>(i));
  }
  builder.replica_stream(10'000, kDst, 200, 999, count, delta,
                         net::kMillisecond);
  const auto streams = detect(builder);
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].size(), static_cast<std::size_t>(count));
  EXPECT_EQ(streams[0].dominant_ttl_delta(), delta);
}

INSTANTIATE_TEST_SUITE_P(
    DeltasAndCounts, ReplicaSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 6, 8),
                       ::testing::Values(3, 5, 12, 24)));

// Pins the contract bench/fig4_spacing.cc (and core::spacing_cdf_ms) rely
// on: a stream with fewer than two replicas has NO spacing — the accessor
// returns the 0.0 sentinel, which consumers must skip rather than bin as a
// genuine zero-spacing sample in the Figure 4 CDF.
TEST(ReplicaStreamSpacing, SubTwoReplicaStreamsHaveZeroSentinelSpacing) {
  ReplicaStream empty;
  EXPECT_EQ(empty.mean_spacing_ns(), 0.0);

  ReplicaStream single;
  single.replicas.push_back({/*record_index=*/0, /*ts=*/5'000, /*ttl=*/64});
  EXPECT_EQ(single.mean_spacing_ns(), 0.0);

  // With two replicas the spacing is real and nonzero.
  ReplicaStream pair = single;
  pair.replicas.push_back({/*record_index=*/1, /*ts=*/9'000, /*ttl=*/62});
  EXPECT_EQ(pair.mean_spacing_ns(), 4'000.0);
}

TEST(ReplicaStreamSpacing, SpacingCdfExcludesSubTwoReplicaStreams) {
  ReplicaStream single;
  single.replicas.push_back({0, 1'000, 64});
  ReplicaStream pair;
  pair.replicas.push_back({1, 0, 64});
  pair.replicas.push_back({2, 2'000'000, 62});  // 2 ms spacing
  const std::vector<ReplicaStream> streams{single, pair};
  const auto cdf = spacing_cdf_ms(streams);
  // Only the two-replica stream contributes; a binned 0.0 from the single
  // would show up as a bogus sample below 1 ms.
  EXPECT_EQ(cdf.size(), 1u);
  EXPECT_EQ(cdf.fraction_at_or_below(1.0), 0.0);
  EXPECT_EQ(cdf.fraction_at_or_below(2.0), 1.0);
}

TEST(StreamMembership, MarksExactlyStreamRecords) {
  TraceBuilder builder;
  builder.packet(0, kOtherDst, 64, 1);                          // index 0
  builder.replica_stream(1000, kDst, 60, 7, 3, 2, 1000);        // 1, 2, 3
  builder.packet(10'000, kOtherDst, 64, 2);                     // index 4
  const auto streams = detect(builder);
  const auto member = stream_membership(builder.trace().size(), streams);
  EXPECT_EQ(member, (std::vector<bool>{false, true, true, true, false}));
}

}  // namespace
}  // namespace rloop::core
