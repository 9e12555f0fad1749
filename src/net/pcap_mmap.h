// pcap ingest: the one savefile parser and the reader built on it.
//
// parse_pcap_buffer is the only code that decodes the savefile framing:
// micro/nano timestamps, either byte order, raw or Ethernet linktype, the
// record plausibility bound and torn-tail truncation. It first counts the
// records it will keep in a framing-only walk of the record headers, so the
// Trace is allocated once at its exact size. read_pcap_fast feeds it in one
// of two ways, chosen by fstat, not by an option:
//   - a regular file is mapped and parsed in place (one MADV_SEQUENTIAL
//     hint; records are copied once, straight from the mapping into the
//     Trace, and parsed pages are dropped behind the cursor in 4 MiB
//     MADV_DONTNEED steps);
//   - input that cannot be mapped (pipe, socket, non-POSIX build, an mmap
//     refusal) is read whole into memory first, so it holds its raw bytes
//     as well as the Trace while parsing. Every caller loads the whole
//     trace anyway.
// tests/test_pcap.cc pins every format case on a regular file and a FIFO;
// tests/test_pcap_hostile.cc pins the hostile corpus on the buffer, mapped
// and FIFO paths.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>

#include "net/trace.h"
#include "telemetry/registry.h"

namespace rloop::net {

// Parses a complete pcap savefile held in memory into a Trace (capped at
// kSnapLen captured bytes per record). The first record's absolute second
// becomes the trace epoch; `source_name` becomes the trace's source.
// Throws std::runtime_error on a malformed file header, bad magic,
// unsupported linktype, or an implausible record length. A capture that
// ends mid-record (killed tcpdump, full disk) is NOT malformed: the
// complete records are kept and the remnant is counted in
// rloop_pcap_truncated_records_total. `registry` (optional) additionally
// receives rloop_pcap_records_total and per-reason
// rloop_pcap_records_skipped_total counters.
Trace parse_pcap_buffer(std::span<const std::byte> data,
                        const std::string& source_name,
                        telemetry::Registry* registry = nullptr);

// Maps `path` and parses it in place. Returns std::nullopt when the file
// cannot be mapped: non-POSIX build, not a regular file, or mmap refused.
// Throws on open failure or malformed content.
std::optional<Trace> read_pcap_mmap(const std::string& path,
                                    telemetry::Registry* registry = nullptr);

// Reads the pcap at `path` (source "pcap:" + path): mapped when it is a
// regular file, otherwise read whole and parsed from memory. Same throws
// and counters as parse_pcap_buffer, plus a throw when `path` cannot be
// opened.
Trace read_pcap_fast(const std::string& path,
                     telemetry::Registry* registry = nullptr);

// Test-only seam: when non-null, invoked by the mmap path between mapping
// the file and re-checking its size. The truncation regression test shrinks
// the file here — the exact window where a concurrent `truncate` would
// otherwise turn a page access into SIGBUS.
extern void (*pcap_mmap_test_hook)();

}  // namespace rloop::net
