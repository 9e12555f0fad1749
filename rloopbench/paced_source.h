// The benchmark's own daemon packet source.
//
// Paced (rate_pps > 0) it is an open-loop generator: record i is due at
// anchor + i / rate_pps regardless of how fast the daemon drains the ring,
// so a stalled consumer builds a backlog (or, under drop_newest, loses
// packets) instead of slowing the offer. Trace time is compressed onto
// that fixed schedule; the records keep their trace timestamps, so the
// detector sees exactly the trace. next() spin-waits to each due time —
// daemon::ReplaySource sleeps instead, which releases bursts after every
// oversleep and hides how late it ran — and records its own lateness.
//
// Full speed (rate_pps == 0) it hands out records back to back and, when
// asked, measures the gap between successive next() calls: the producer's
// ring push plus any wait for ring space.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "daemon/packet_source.h"
#include "net/trace.h"

namespace rloopbench {

class PacedSource : public rloop::daemon::PacketSource {
 public:
  // `trace` must outlive the source.
  PacedSource(const rloop::net::Trace* trace, double rate_pps,
              bool measure_gaps);

  bool next(rloop::net::TraceRecord& out) override;
  std::string name() const override;
  std::size_t expected_packets() const override { return trace_->size(); }

  // Read after Daemon::run() returned (the producer thread is joined).
  // Steady-clock time record `i` was due (paced mode).
  std::int64_t due_ns(std::size_t i) const {
    return anchor_ns_ + static_cast<std::int64_t>(
                            static_cast<double>(i) * period_ns_);
  }
  // 99th percentile of release time minus due time, in ns (paced mode).
  double lateness_p99_ns() const;
  // Sum of the gaps between next() calls, in ns (measure_gaps).
  std::int64_t gap_total_ns() const { return gap_total_ns_; }

 private:
  const rloop::net::Trace* trace_;
  double period_ns_;  // 0 = full speed
  bool measure_gaps_;
  std::size_t index_ = 0;
  std::int64_t anchor_ns_ = 0;
  std::int64_t last_return_ns_ = 0;
  std::int64_t gap_total_ns_ = 0;
  std::vector<std::int64_t> lateness_ns_;
};

}  // namespace rloopbench
