// Structure-of-arrays view of a trace for the detection hot path. The
// detect/validate/merge scans, like the replica test of Section IV-A, read
// only IP-header fields, so the store holds those, one column each:
//
//   ts        int64   capture timestamp
//   dst       uint32  raw destination address (0 when !ok)
//   dst24     uint32  destination address masked to /24 (0 when !ok)
//   ttl       uint8   IP TTL (0 when !ok)
//   ok        uint8   1 when the IP header parsed
//   key_hash  uint64  replica_key_hash over the captured bytes (0 when !ok)
//
// One filler, fill_row(), writes every row straight from the record's
// captured bytes: build() runs it over the trace on the serial path, each
// parallel pipeline body over its slice, so FNV runs once per record on
// every path. The store also keeps a pointer to the source trace: replica
// keys are materialized from the raw captured bytes (byte-precise equality,
// no false merges), which `bytes(i)` hands out, so the trace must outlive
// the store.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/record.h"
#include "net/prefix.h"
#include "net/time.h"
#include "net/trace.h"

namespace rloop::core {

class RecordStore {
 public:
  RecordStore() = default;

  // prepare + fill_row over every record of `trace`. `parse_failures`, when
  // non-null, receives the number of rows whose IP header did not parse.
  static RecordStore build(const net::Trace& trace,
                           std::uint64_t* parse_failures = nullptr);

  // build(trace); `records` is not read. Kept for rloopbench's staged
  // serial pass, which still holds parse_trace(trace); it goes with it.
  static RecordStore build(const net::Trace& trace,
                           const std::vector<ParsedRecord>&) {
    return build(trace);
  }

  // Sizes every column for the records of `trace` and keeps a pointer to it.
  // fill_row then writes each row exactly once (on the parallel path, the
  // body whose slice holds it). Capacity is reused across calls, so a
  // persistent workspace's store allocates nothing once warm.
  void prepare(const net::Trace& trace);

  // Fills row i: net::Ipv4Header::parse (it rejects exactly what
  // net::parse_packet rejects) plus replica_key_hash. A rejected row keeps
  // its timestamp and holds 0 elsewhere. Returns whether the header parsed.
  bool fill_row(std::size_t i);

  std::size_t size() const { return ts_.size(); }

  bool ok(std::size_t i) const { return ok_[i] != 0; }
  net::TimeNs ts(std::size_t i) const { return ts_[i]; }
  std::uint8_t ttl(std::size_t i) const { return ttl_[i]; }
  net::Ipv4Addr dst(std::size_t i) const { return net::Ipv4Addr(dst_[i]); }
  net::Prefix dst24(std::size_t i) const {
    return net::Prefix::of(net::Ipv4Addr(dst24_[i]), 24);
  }
  // Packed form of dst24 (net::Prefix::pack), the NonLoopedIndex sort key.
  std::uint64_t dst24_key(std::size_t i) const {
    return net::Prefix::pack(dst24_[i], 24);
  }
  std::uint64_t key_hash(std::size_t i) const { return key_hash_[i]; }

  // The record's captured bytes (starting at the IP header) in the source
  // trace; valid only while the trace lives.
  std::span<const std::byte> bytes(std::size_t i) const {
    return (*trace_)[i].bytes();
  }

 private:
  const net::Trace* trace_ = nullptr;
  std::vector<net::TimeNs> ts_;
  std::vector<std::uint32_t> dst_;
  std::vector<std::uint32_t> dst24_;
  std::vector<std::uint8_t> ttl_;
  std::vector<std::uint8_t> ok_;
  std::vector<std::uint64_t> key_hash_;
};

}  // namespace rloop::core
