#include "core/record.h"

namespace rloop::core {

std::vector<ParsedRecord> parse_trace(const net::Trace& trace) {
  std::vector<ParsedRecord> records;
  records.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const net::TraceRecord& raw = trace[i];
    ParsedRecord rec;
    rec.ts = raw.ts;
    rec.index = static_cast<std::uint32_t>(i);
    if (auto parsed = net::parse_packet(raw.bytes())) {
      rec.ok = true;
      rec.pkt = *parsed;
      rec.dst24 = net::Prefix::slash24(parsed->ip.dst);
    }
    records.push_back(rec);
  }
  return records;
}

}  // namespace rloop::core
