#include "core/metrics.h"

#include <gtest/gtest.h>

#include "trace_builder.h"

namespace rloop::core {
namespace {

using net::Ipv4Addr;
using rloop::testing::TraceBuilder;

LoopDetectionResult result_for(TraceBuilder& builder) {
  return detect_loops(builder.trace());
}

TEST(Metrics, TtlDeltaDistribution) {
  TraceBuilder builder;
  builder.replica_stream(0, Ipv4Addr(203, 0, 113, 1), 60, 1, 4, 2, 1000);
  builder.replica_stream(net::kSecond, Ipv4Addr(198, 18, 0, 1), 60, 2, 4, 2,
                         1000);
  builder.replica_stream(2 * net::kSecond, Ipv4Addr(198, 19, 0, 1), 60, 3, 4,
                         3, 1000);
  const auto result = result_for(builder);
  const auto hist = ttl_delta_distribution(result.valid_streams);
  EXPECT_EQ(hist.total(), 3u);
  EXPECT_EQ(hist.count(2), 2u);
  EXPECT_EQ(hist.count(3), 1u);
  EXPECT_NEAR(hist.fraction(2), 2.0 / 3.0, 1e-9);
  EXPECT_EQ(hist.mode(), 2);
}

TEST(Metrics, StreamSizeCdf) {
  TraceBuilder builder;
  builder.replica_stream(0, Ipv4Addr(203, 0, 113, 1), 100, 1, 31, 2, 1000);
  builder.replica_stream(net::kSecond, Ipv4Addr(198, 18, 0, 1), 200, 2, 63, 2,
                         1000);
  const auto result = result_for(builder);
  const auto cdf = stream_size_cdf(result.valid_streams);
  ASSERT_EQ(cdf.size(), 2u);
  // The Figure 3 jumps: ~31 replicas for TTL 64, ~63 for TTL 128.
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(31), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(63), 1.0);
}

TEST(Metrics, SpacingCdfInMilliseconds) {
  TraceBuilder builder;
  builder.replica_stream(0, Ipv4Addr(203, 0, 113, 1), 60, 1, 5, 2,
                         2 * net::kMillisecond);
  const auto result = result_for(builder);
  const auto cdf = spacing_cdf_ms(result.valid_streams);
  ASSERT_EQ(cdf.size(), 1u);
  EXPECT_NEAR(cdf.min(), 2.0, 1e-9);
}

TEST(Metrics, DurationCdfs) {
  TraceBuilder builder;
  builder.replica_stream(0, Ipv4Addr(203, 0, 113, 1), 60, 1, 5, 2,
                         10 * net::kMillisecond);  // 40 ms duration
  const auto result = result_for(builder);
  const auto stream_cdf = stream_duration_cdf_ms(result.valid_streams);
  EXPECT_NEAR(stream_cdf.min(), 40.0, 1e-9);
  const auto loop_cdf = loop_duration_cdf_s(result.loops);
  EXPECT_NEAR(loop_cdf.min(), 0.04, 1e-9);
}

TEST(Metrics, PacketCategoriesMultiMembership) {
  const auto syn_ack = net::make_tcp_packet(
      Ipv4Addr(1, 2, 3, 4), Ipv4Addr(5, 6, 7, 8), 1, 2, 0, 0,
      net::kTcpSyn | net::kTcpAck, 0, 64, 1);
  const auto cats = packet_categories(syn_ack);
  EXPECT_EQ(cats, (std::vector<std::string>{"TCP", "ACK", "SYN"}));

  const auto udp = net::make_udp_packet(Ipv4Addr(1, 2, 3, 4),
                                        Ipv4Addr(5, 6, 7, 8), 1, 2, 0, 64, 1);
  EXPECT_EQ(packet_categories(udp), (std::vector<std::string>{"UDP"}));

  const auto mcast_udp = net::make_udp_packet(
      Ipv4Addr(1, 2, 3, 4), Ipv4Addr(224, 0, 1, 5), 1, 2, 0, 64, 1);
  EXPECT_EQ(packet_categories(mcast_udp),
            (std::vector<std::string>{"MCAST", "UDP"}));

  const auto icmp = net::make_icmp_packet(Ipv4Addr(1, 2, 3, 4),
                                          Ipv4Addr(5, 6, 7, 8),
                                          net::IcmpType::echo_request, 0, 0,
                                          32, 64, 1);
  EXPECT_EQ(packet_categories(icmp), (std::vector<std::string>{"ICMP"}));
}

TEST(Metrics, TrafficTypeMixFractions) {
  TraceBuilder builder;
  // 3 UDP packets + 1 looping UDP stream of 3 replicas: 6 UDP records.
  for (int i = 0; i < 3; ++i) {
    builder.packet(i * 1000, Ipv4Addr(198, 18, 0, 1), 64,
                   static_cast<std::uint16_t>(i));
  }
  builder.replica_stream(10'000, Ipv4Addr(203, 0, 113, 1), 60, 99, 3, 2, 100);
  const auto result = result_for(builder);

  const auto all = traffic_type_mix(builder.trace());
  EXPECT_EQ(all.total(), 6u);
  EXPECT_DOUBLE_EQ(all.fraction("UDP"), 1.0);
  EXPECT_DOUBLE_EQ(all.fraction("TCP"), 0.0);

  const auto looped = looped_type_mix(builder.trace(), result.valid_streams);
  EXPECT_EQ(looped.total(), 3u);  // only the replicas
  EXPECT_DOUBLE_EQ(looped.fraction("UDP"), 1.0);
}

TEST(Metrics, DstTimeseries) {
  TraceBuilder builder;
  const Ipv4Addr dst(203, 0, 113, 42);
  builder.replica_stream(5 * net::kSecond, dst, 60, 1, 4, 2, 1000);
  const auto result = result_for(builder);
  const auto series = dst_timeseries(result.valid_streams);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_NEAR(series[0].time_s, 5.0, 1e-9);
  EXPECT_EQ(series[0].dst, dst);
}

}  // namespace
}  // namespace rloop::core
