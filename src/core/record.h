// Full-parse view of a trace, one ParsedRecord per captured packet: the
// input of the reference engine (detect_reference) and the ParsedRecord
// validate/merge overloads that rloopbench's oracle and the differential
// tests run. detect_loops() does not build it (core/record_store.h).
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
  std::uint32_t index = 0;  // position in the trace
  bool ok = false;          // IP header parsed successfully
  net::ParsedPacket pkt;
  net::Prefix dst24;  // destination /24, the aggregation unit of the paper
};

// Parses every record, transport header included. Records whose IP header
// is malformed keep ok=false and are skipped by all detector stages (but
// still counted).
std::vector<ParsedRecord> parse_trace(const net::Trace& trace);

}  // namespace rloop::core
