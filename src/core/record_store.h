// Structure-of-arrays view of a parsed trace for the detection hot path.
//
// The detect/validate/merge scans read a handful of narrow fields per record
// (timestamp, TTL, destination /24, replica-key hash); ParsedRecord carries
// all of them plus the full ParsedPacket, so an array-of-structs scan drags
// ~10x the bytes it reads through the cache. RecordStore transposes the
// fields the scans touch into contiguous per-field columns:
//
//   ts        int64   capture timestamp
//   dst       uint32  raw destination address
//   dst24     uint32  destination address masked to /24
//   ttl       uint8   IP TTL
//   ok        uint8   1 when the IP header parsed
//   key_hash  uint64  replica_key_hash over the captured bytes (0 when !ok)
//
// The key-hash column is computed once per record — by build() on the serial
// path, by each pipeline body for its slice on the parallel one — and every
// later stage reuses it, so FNV runs exactly once per record on every path.
// The store also keeps a pointer to the source trace: replica keys are still
// materialized from the raw captured bytes (byte-precise equality, no false
// merges), and `bytes(i)` hands those out. The trace must therefore outlive
// the store.
//
// ParsedRecord remains the public API of parse results. Both paths fill the
// store row by row through prepare + set_row: build() does it for the serial
// pipeline's columnize stage, each parallel pipeline body for the
// contiguous slice it parses.
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

  // Columnizes `records` (which must be parse_trace(trace)) through
  // prepare + set_row, hashing each record that parsed ok; retains a pointer
  // to `trace` for bytes().
  static RecordStore build(const net::Trace& trace,
                           const std::vector<ParsedRecord>& records);

  // Parallel-pipeline support (core/pipeline.cc): sizes every column for
  // `n` records of `trace` without filling them; rows are then written by
  // set_row, each exactly once, by the body whose slice holds the record
  // (disjoint-row discipline — no two threads ever touch one index).
  // Column capacity is reused across calls, so a persistent workspace's
  // store allocates nothing once warm.
  void prepare(const net::Trace& trace, std::size_t n);

  // Fills row i from a parsed record plus its precomputed replica-key hash;
  // the hash is stored only when the record parsed ok. The only writer of
  // the columns, on the serial path (build) and the parallel one alike.
  void set_row(std::size_t i, const ParsedRecord& rec,
               std::uint64_t key_hash) {
    ts_[i] = rec.ts;
    ok_[i] = rec.ok ? 1 : 0;
    dst_[i] = rec.pkt.ip.dst.value;
    dst24_[i] = rec.dst24.addr.value;
    ttl_[i] = rec.pkt.ip.ttl;
    key_hash_[i] = rec.ok ? key_hash : 0;
  }

  std::size_t size() const { return ts_.size(); }
  bool empty() const { return ts_.empty(); }

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
