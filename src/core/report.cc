#include "core/report.h"

#include <ostream>
#include <sstream>

#include "telemetry/exporter.h"

namespace rloop::core {

using telemetry::json_escape;

namespace {

void write_stream_json(std::ostream& os, const ReplicaStream& stream) {
  os << "{\"dst\":\"" << stream.dst.to_string() << "\",\"prefix\":\""
     << stream.dst24.to_string() << "\",\"replicas\":" << stream.size()
     << ",\"start_ns\":" << stream.start() << ",\"end_ns\":" << stream.end()
     << ",\"ttl_delta\":" << stream.dominant_ttl_delta()
     << ",\"first_ttl\":" << static_cast<int>(stream.replicas.front().ttl)
     << ",\"last_ttl\":" << static_cast<int>(stream.replicas.back().ttl)
     << "}";
}

}  // namespace

void write_json_report(std::ostream& os, const LoopDetectionResult& result,
                       const ReportOptions& options) {
  os << "{\"trace\":{\"name\":\"" << json_escape(options.trace_name)
     << "\",\"epoch_unix_s\":" << options.trace_epoch_unix_s
     << ",\"records\":" << result.total_records
     << ",\"parse_failures\":" << result.parse_failures << "},";
  os << "\"summary\":{\"raw_streams\":" << result.raw_streams.size()
     << ",\"valid_streams\":" << result.valid_streams.size()
     << ",\"loops\":" << result.loops.size()
     << ",\"looped_packet_records\":" << result.looped_packet_records()
     << ",\"rejected_too_small\":" << result.validation.rejected_too_small
     << ",\"rejected_prefix_conflict\":"
     << result.validation.rejected_prefix_conflict << "},";
  os << "\"loops\":[";
  for (std::size_t i = 0; i < result.loops.size(); ++i) {
    const RoutingLoop& loop = result.loops[i];
    if (i) os << ",";
    os << "{\"prefix\":\"" << loop.prefix24.to_string()
       << "\",\"start_ns\":" << loop.start << ",\"end_ns\":" << loop.end
       << ",\"duration_ns\":" << loop.duration()
       << ",\"ttl_delta\":" << loop.ttl_delta
       << ",\"replica_count\":" << loop.replica_count
       << ",\"stream_count\":" << loop.stream_count();
    if (options.include_streams) {
      os << ",\"streams\":[";
      for (std::size_t s = 0; s < loop.stream_indices.size(); ++s) {
        if (s) os << ",";
        write_stream_json(os, result.valid_streams[loop.stream_indices[s]]);
      }
      os << "]";
    }
    os << "}";
  }
  os << "]}";
}

std::string json_report(const LoopDetectionResult& result,
                        const ReportOptions& options) {
  std::ostringstream os;
  write_json_report(os, result, options);
  return os.str();
}

void write_loops_csv(std::ostream& os, const LoopDetectionResult& result) {
  os << "prefix,start_ns,end_ns,duration_ns,ttl_delta,replica_count,"
        "stream_count\n";
  for (const auto& loop : result.loops) {
    os << loop.prefix24.to_string() << ',' << loop.start << ',' << loop.end
       << ',' << loop.duration() << ',' << loop.ttl_delta << ','
       << loop.replica_count << ',' << loop.stream_count() << '\n';
  }
}

void write_streams_csv(std::ostream& os, const LoopDetectionResult& result) {
  os << "dst,prefix,replicas,start_ns,end_ns,duration_ns,ttl_delta,"
        "first_ttl,last_ttl,mean_spacing_ns\n";
  for (const auto& stream : result.valid_streams) {
    os << stream.dst.to_string() << ',' << stream.dst24.to_string() << ','
       << stream.size() << ',' << stream.start() << ',' << stream.end() << ','
       << stream.duration() << ',' << stream.dominant_ttl_delta() << ','
       << static_cast<int>(stream.replicas.front().ttl) << ','
       << static_cast<int>(stream.replicas.back().ttl) << ','
       << static_cast<std::int64_t>(stream.mean_spacing_ns()) << '\n';
  }
}

}  // namespace rloop::core
