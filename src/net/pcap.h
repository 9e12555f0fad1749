// pcap file format reader/writer (the classic libpcap savefile format).
//
// Writing uses the nanosecond-resolution magic (0xa1b23c4d) with LINKTYPE_RAW
// (101: packets begin with the IPv4 header), matching the library's 40-byte
// snaplen traces. Reading (net/pcap_mmap.h: read_pcap_fast) additionally
// accepts microsecond files, either byte order, and LINKTYPE_EN10MB
// (Ethernet framing is stripped and non-IPv4 frames are skipped), so the
// detector runs on ordinary captures.
#pragma once

#include <cstdint>
#include <string>

#include "net/trace.h"

namespace rloop::net {

inline constexpr std::uint32_t kPcapMagicMicros = 0xa1b2c3d4;
inline constexpr std::uint32_t kPcapMagicNanos = 0xa1b23c4d;
inline constexpr std::uint32_t kLinktypeRaw = 101;
inline constexpr std::uint32_t kLinktypeEthernet = 1;

// Writes `trace` to `path`. Timestamps are emitted as absolute
// (epoch_unix_s + record ts). Throws std::runtime_error on I/O failure.
void write_pcap(const Trace& trace, const std::string& path);

}  // namespace rloop::net
