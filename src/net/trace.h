// Packet trace storage: the 40-byte snaplen record format of the Sprint IPMON
// traces the paper analyzed, held in memory with nanosecond timestamps.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/packet.h"
#include "net/time.h"

namespace rloop::net {

// The paper's traces keep the first 40 bytes of every IP packet: enough for
// IP + TCP headers (without options).
inline constexpr std::size_t kSnapLen = 40;

struct TraceRecord {
  TimeNs ts = 0;               // relative to the trace epoch
  std::uint32_t wire_len = 0;  // original packet length on the wire
  std::uint8_t cap_len = 0;    // captured bytes, <= kSnapLen
  std::array<std::byte, kSnapLen> data{};

  std::span<const std::byte> bytes() const {
    return std::span<const std::byte>(data.data(), cap_len);
  }
};

class Trace {
 public:
  Trace() = default;
  Trace(std::string link_name, std::int64_t epoch_unix_s)
      : link_name_(std::move(link_name)), epoch_unix_s_(epoch_unix_s) {}

  const std::string& link_name() const { return link_name_; }
  void set_link_name(std::string name) { link_name_ = std::move(name); }
  // UNIX seconds of t=0 in this trace; only used for pcap absolute stamps.
  std::int64_t epoch_unix_s() const { return epoch_unix_s_; }
  void set_epoch_unix_s(std::int64_t s) { epoch_unix_s_ = s; }

  // Appends raw captured bytes (truncated to kSnapLen). Records must be added
  // in non-decreasing timestamp order; throws std::invalid_argument otherwise.
  void add(TimeNs ts, std::span<const std::byte> packet_bytes,
           std::uint32_t wire_len);
  // Serializes the packet's headers and appends them (convenience for the
  // simulator tap and tests).
  void add(TimeNs ts, const ParsedPacket& pkt, std::uint32_t wire_len);
  // Reserves room for `n` records, so that many adds never reallocate.
  void reserve(std::size_t n) { records_.reserve(n); }

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const TraceRecord& operator[](std::size_t i) const { return records_[i]; }
  const std::vector<TraceRecord>& records() const { return records_; }

  auto begin() const { return records_.begin(); }
  auto end() const { return records_.end(); }

  // Time span between first and last record; 0 when fewer than two records.
  TimeNs duration() const;
  // Sum of wire lengths, for Table I's average bandwidth column.
  std::uint64_t total_wire_bytes() const { return total_wire_bytes_; }
  double average_bandwidth_mbps() const;

 private:
  std::string link_name_;
  std::int64_t epoch_unix_s_ = 0;
  std::vector<TraceRecord> records_;
  std::uint64_t total_wire_bytes_ = 0;
};

// Uniform packet sampling: keeps each record independently with probability
// `keep_prob` (deterministic for a given seed). Real monitors often sample
// under load; the sampling ablation bench uses this to measure how fast the
// replica-stream method degrades when the monitor misses crossings.
Trace sample_trace(const Trace& trace, double keep_prob, std::uint64_t seed);

}  // namespace rloop::net
