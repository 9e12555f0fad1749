// Parsed view of a trace: one ParsedRecord per captured packet.
//
// The detector parses the whole trace once up front; every later stage works
// on record indices, so a packet is identified by its position in the trace
// throughout the pipeline.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "net/prefix.h"
#include "net/time.h"
#include "net/trace.h"

namespace rloop::core {

struct ParsedRecord {
  net::TimeNs ts = 0;
  std::uint32_t wire_len = 0;
  std::uint8_t cap_len = 0;
  std::uint32_t index = 0;  // position in the trace
  bool ok = false;          // IP header parsed successfully
  net::ParsedPacket pkt;
  net::Prefix dst24;  // destination /24, the aggregation unit of the paper
};

// Parses trace record `i` in isolation. Records parse independently (framing
// happened at capture/pcap-read time), so any partition of indices across
// workers — the parallel pipeline's contiguous slices — reproduces parse_trace()
// exactly, record for record.
ParsedRecord parse_record(const net::Trace& trace, std::size_t i);

// Parses every record. Records whose IP header is malformed keep ok=false
// and are skipped by all detector stages (but still counted).
std::vector<ParsedRecord> parse_trace(const net::Trace& trace);

}  // namespace rloop::core
