#include "core/record.h"

namespace rloop::core {

ParsedRecord parse_record(const net::Trace& trace, std::size_t i) {
  const net::TraceRecord& raw = trace[i];
  ParsedRecord rec;
  rec.ts = raw.ts;
  rec.wire_len = raw.wire_len;
  rec.cap_len = raw.cap_len;
  rec.index = static_cast<std::uint32_t>(i);
  if (auto parsed = net::parse_packet(raw.bytes())) {
    rec.ok = true;
    rec.pkt = *parsed;
    rec.dst24 = net::Prefix::slash24(parsed->ip.dst);
  }
  return rec;
}

std::vector<ParsedRecord> parse_trace(const net::Trace& trace) {
  std::vector<ParsedRecord> records;
  records.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    records.push_back(parse_record(trace, i));
  }
  return records;
}

}  // namespace rloop::core
