#include "core/metrics.h"

#include "net/packet.h"
#include "net/time.h"
#include "net/trace.h"

namespace rloop::core {

analysis::DiscreteHistogram ttl_delta_distribution(
    const std::vector<ReplicaStream>& streams) {
  analysis::DiscreteHistogram hist;
  for (const auto& s : streams) {
    const int delta = s.dominant_ttl_delta();
    if (delta > 0) hist.add(delta);
  }
  return hist;
}

analysis::EmpiricalCdf stream_size_cdf(
    const std::vector<ReplicaStream>& streams) {
  analysis::EmpiricalCdf cdf;
  for (const auto& s : streams) {
    cdf.add(static_cast<double>(s.size()));
  }
  return cdf;
}

analysis::EmpiricalCdf spacing_cdf_ms(
    const std::vector<ReplicaStream>& streams) {
  analysis::EmpiricalCdf cdf;
  for (const auto& s : streams) {
    if (s.size() >= 2) cdf.add(s.mean_spacing_ns() / 1e6);
  }
  return cdf;
}

analysis::EmpiricalCdf stream_duration_cdf_ms(
    const std::vector<ReplicaStream>& streams) {
  analysis::EmpiricalCdf cdf;
  for (const auto& s : streams) {
    cdf.add(net::to_millis(s.duration()));
  }
  return cdf;
}

analysis::EmpiricalCdf loop_duration_cdf_s(
    const std::vector<RoutingLoop>& loops) {
  analysis::EmpiricalCdf cdf;
  for (const auto& l : loops) {
    cdf.add(net::to_seconds(l.duration()));
  }
  return cdf;
}

const std::vector<std::string> kTrafficCategories = {
    "TCP", "ACK", "PSH", "RST", "URG", "SYN",
    "FIN", "UDP", "MCAST", "ICMP", "OTHER"};

std::vector<std::string> packet_categories(const net::ParsedPacket& pkt) {
  std::vector<std::string> cats;
  const bool multicast = (pkt.ip.dst.value >> 28) == 0xe;  // 224.0.0.0/4
  if (multicast) cats.push_back("MCAST");

  if (const auto* t = pkt.tcp()) {
    cats.push_back("TCP");
    if (t->has(net::kTcpAck)) cats.push_back("ACK");
    if (t->has(net::kTcpPsh)) cats.push_back("PSH");
    if (t->has(net::kTcpRst)) cats.push_back("RST");
    if (t->has(net::kTcpUrg)) cats.push_back("URG");
    if (t->has(net::kTcpSyn)) cats.push_back("SYN");
    if (t->has(net::kTcpFin)) cats.push_back("FIN");
  } else if (pkt.udp()) {
    cats.push_back("UDP");
  } else if (pkt.icmp()) {
    cats.push_back("ICMP");
  } else if (!multicast) {
    cats.push_back("OTHER");
  }
  return cats;
}

namespace {

// Counts `raw` under each of its categories, unless its IP header fails to
// parse.
void count_categories(analysis::CategoricalCounter& counter,
                      const net::TraceRecord& raw) {
  const auto pkt = net::parse_packet(raw.bytes());
  if (!pkt) return;
  counter.add_sample();
  for (const auto& cat : packet_categories(*pkt)) counter.add(cat);
}

}  // namespace

analysis::CategoricalCounter traffic_type_mix(const net::Trace& trace) {
  analysis::CategoricalCounter counter;
  for (const auto& raw : trace) count_categories(counter, raw);
  return counter;
}

analysis::CategoricalCounter looped_type_mix(
    const net::Trace& trace, const std::vector<ReplicaStream>& valid_streams) {
  analysis::CategoricalCounter counter;
  const auto member = stream_membership(trace.size(), valid_streams);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (member[i]) count_categories(counter, trace[i]);
  }
  return counter;
}

std::vector<DstSample> dst_timeseries(
    const std::vector<ReplicaStream>& streams) {
  std::vector<DstSample> out;
  out.reserve(streams.size());
  for (const auto& s : streams) {
    out.push_back({net::to_seconds(s.start()), s.dst});
  }
  return out;
}

}  // namespace rloop::core
