// Edge cases from the paper's operating environment that cut across
// modules: fragmented packets looping, link restoration re-convergence,
// scenario-4's transit-chain data path, and multicast forwarding.
#include <gtest/gtest.h>

#include "core/loop_detector.h"
#include "net/packet.h"
#include "scenarios/backbone.h"
#include "sim/network.h"
#include "trace_builder.h"

namespace rloop {
namespace {

using net::Ipv4Addr;

// A non-first fragment has no transport header in its capture, but its IP
// header (including the fragment offset and ID) still identifies replicas:
// a looping fragment must be detected like any other packet.
TEST(EdgeCases, FragmentReplicasAreDetected) {
  net::Trace trace("frags", 0);
  for (int i = 0; i < 6; ++i) {
    auto pkt = net::make_udp_packet(Ipv4Addr(198, 51, 100, 1),
                                    Ipv4Addr(203, 0, 113, 9), 1000, 2000, 64,
                                    static_cast<std::uint8_t>(60 - 2 * i), 77);
    pkt.ip.fragment_offset = 185;  // non-first fragment
    pkt.ip.more_fragments = true;
    pkt.ip.checksum = pkt.ip.compute_checksum();
    trace.add(i * net::kMillisecond, pkt, pkt.ip.total_length);
  }
  const auto result = core::detect_loops(trace);
  ASSERT_EQ(result.valid_streams.size(), 1u);
  EXPECT_EQ(result.valid_streams[0].size(), 6u);
  EXPECT_EQ(result.valid_streams[0].dominant_ttl_delta(), 2);
  // The record parses without a transport header.
  const auto first = net::parse_packet(trace[0].bytes());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->udp(), nullptr);
}

// Different fragments of the same datagram share the IP ID but differ in
// offset: they must NOT be treated as replicas of each other.
TEST(EdgeCases, DistinctFragmentsAreNotReplicas) {
  net::Trace trace("frags2", 0);
  for (int i = 0; i < 4; ++i) {
    auto pkt = net::make_udp_packet(Ipv4Addr(198, 51, 100, 1),
                                    Ipv4Addr(203, 0, 113, 9), 1000, 2000, 64,
                                    static_cast<std::uint8_t>(60 - 2 * i), 77);
    pkt.ip.fragment_offset = static_cast<std::uint16_t>(185 * (i + 1));
    pkt.ip.more_fragments = true;
    pkt.ip.checksum = pkt.ip.compute_checksum();
    trace.add(i * net::kMillisecond, pkt, pkt.ip.total_length);
  }
  const auto result = core::detect_loops(trace);
  EXPECT_TRUE(result.raw_streams.empty());
}

// Restoring a failed link triggers a second convergence wave; traffic must
// return to the direct path afterwards.
TEST(EdgeCases, LinkRestorationReconverges) {
  routing::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  const auto c = topo.add_node("c");
  const auto direct = topo.add_link(a, c, net::kMillisecond, 1e9, 100, 1);
  topo.add_link(a, b, net::kMillisecond, 1e9, 100, 5);
  topo.add_link(b, c, net::kMillisecond, 1e9, 100, 5);

  sim::Network network(topo, 2, {});
  const auto prefix = *net::Prefix::parse("203.0.113.0/24");
  network.attach_external_route({prefix, {c}});
  network.install_all_routes();
  const auto tap = network.add_tap(direct, a, "tap", 0);

  network.fail_link(direct, 5 * net::kSecond);
  network.restore_link(direct, 20 * net::kSecond);

  auto probe = [&](net::TimeNs t, std::uint16_t id) {
    return network.inject(
        net::make_udp_packet(Ipv4Addr(10, 255, 0, 0), Ipv4Addr(203, 0, 113, 1),
                             1, 2, 10, 64, id),
        60, a, t);
  };
  probe(net::kSecond, 1);               // before failure: direct
  const auto mid = probe(12 * net::kSecond, 2);   // during: via b
  const auto late = probe(60 * net::kSecond, 3);  // after restore: direct
  network.run_all();

  EXPECT_EQ(network.fates().at(mid).kind, sim::FateKind::delivered);
  EXPECT_EQ(network.fates().at(late).kind, sim::FateKind::delivered);
  // Tap on the direct link saw the first and third probes only.
  EXPECT_EQ(network.tap_trace(tap).size(), 2u);
  // The control log recorded both waves.
  int downs = 0, ups = 0;
  for (const auto& ev : network.control_log()) {
    if (ev.kind == sim::ControlEvent::Kind::link_down) ++downs;
    if (ev.kind == sim::ControlEvent::Kind::link_up) ++ups;
  }
  EXPECT_EQ(downs, 1);
  EXPECT_EQ(ups, 1);
}

// Scenario 4's equal-cost construction: steady-state traffic crosses
// X->M->Y (each hop decrements TTL once more than the direct path would).
TEST(EdgeCases, TransitChainCarriesSteadyTraffic) {
  auto spec = scenarios::backbone_spec(4);
  spec.duration = 5 * net::kSecond;
  spec.igp_events = 0;
  spec.bgp_events = 0;
  auto run = scenarios::build_backbone(spec);
  scenarios::execute(*run);
  // Tap is X->M; with no failures it must carry the bulk of traffic.
  EXPECT_GT(run->trace().size(), 1000u);
  EXPECT_EQ(run->network->stats().loop_crossings, 0u);
}

// Multicast-range destinations route like the attached 224.0.0.0/4 prefix.
TEST(EdgeCases, MulticastRangeTrafficIsDelivered) {
  routing::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, net::kMillisecond, 1e9, 100, 1);
  sim::Network network(topo, 3, {});
  network.attach_external_route(
      {net::Prefix::of(Ipv4Addr(224, 0, 0, 0), 4), {b}});
  network.install_all_routes();
  const auto id = network.inject(
      net::make_udp_packet(Ipv4Addr(10, 255, 0, 0), Ipv4Addr(239, 1, 2, 3), 1,
                           2, 100, 32, 9),
      150, a, 0);
  network.run_all();
  EXPECT_EQ(network.fates().at(id).kind, sim::FateKind::delivered);
  EXPECT_EQ(network.fates().at(id).final_node, b);
}

// A capture with mixed snaplens (some full 40-byte, some IP-header-only)
// still detects loops among the fully-captured packets and never confuses
// short and long captures of different packets.
TEST(EdgeCases, MixedSnaplenCaptures) {
  net::Trace trace("short", 0);
  std::array<std::byte, net::kMaxHeaderBytes> buf{};
  for (int i = 0; i < 5; ++i) {
    const auto pkt = net::make_udp_packet(
        Ipv4Addr(198, 51, 100, 1), Ipv4Addr(203, 0, 113, 9), 1000, 2000, 64,
        static_cast<std::uint8_t>(60 - 2 * i), 42);
    const auto n = net::serialize_packet(pkt, buf);
    // Capture only the IP header for odd replicas.
    const std::size_t cap = (i % 2) ? net::kIpv4HeaderSize : n;
    trace.add(i * net::kMillisecond,
              std::span<const std::byte>(buf.data(), cap),
              pkt.ip.total_length);
  }
  const auto result = core::detect_loops(trace);
  // Two interleaved key-groups (20-byte captures vs 28-byte captures) each
  // form their own stream; the 3-element one survives validation.
  ASSERT_EQ(result.valid_streams.size(), 1u);
  EXPECT_EQ(result.valid_streams[0].size(), 3u);
  EXPECT_EQ(result.valid_streams[0].dominant_ttl_delta(), 4);
}

}  // namespace
}  // namespace rloop
