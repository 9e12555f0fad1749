// Metrics over detection results: the quantities behind every figure in the
// paper's evaluation (Figures 2-9).
#pragma once

#include <string>
#include <vector>

#include "analysis/cdf.h"
#include "analysis/histogram.h"
#include "core/loop_detector.h"

namespace rloop::core {

// Figure 2: distribution of the dominant TTL delta across replica streams.
analysis::DiscreteHistogram ttl_delta_distribution(
    const std::vector<ReplicaStream>& streams);

// Figure 3: CDF of the number of replicas per stream.
analysis::EmpiricalCdf stream_size_cdf(
    const std::vector<ReplicaStream>& streams);

// Figure 4: CDF of per-stream mean inter-replica spacing, in milliseconds.
analysis::EmpiricalCdf spacing_cdf_ms(
    const std::vector<ReplicaStream>& streams);

// Figure 8: CDF of replica stream duration, in milliseconds.
analysis::EmpiricalCdf stream_duration_cdf_ms(
    const std::vector<ReplicaStream>& streams);

// Figure 9: CDF of merged routing loop duration, in seconds.
analysis::EmpiricalCdf loop_duration_cdf_s(
    const std::vector<RoutingLoop>& loops);

// The categories of Figures 5/6. A packet lands in several categories (a
// SYN-ACK counts under TCP, SYN and ACK, as in the paper).
extern const std::vector<std::string> kTrafficCategories;
std::vector<std::string> packet_categories(const net::ParsedPacket& pkt);

// Figure 5: category mix over all (parseable) records of `trace`.
analysis::CategoricalCounter traffic_type_mix(const net::Trace& trace);

// Figure 6: category mix over looped records (members of validated streams
// found in `trace`); only those records are parsed.
analysis::CategoricalCounter looped_type_mix(
    const net::Trace& trace, const std::vector<ReplicaStream>& valid_streams);

// Figure 7: (time in seconds, destination address) per validated stream.
struct DstSample {
  double time_s = 0.0;
  net::Ipv4Addr dst;
};
std::vector<DstSample> dst_timeseries(
    const std::vector<ReplicaStream>& streams);

}  // namespace rloop::core
