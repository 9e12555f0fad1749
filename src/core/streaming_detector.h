// Online (single-pass, bounded-memory) loop detection.
//
// The offline pipeline needs the whole trace for validation step 2 and for
// merging. Operationally, though, a loop alarm is most useful while the loop
// is happening; the paper notes that a surge of replica streams (and of ICMP
// time-exceeded traffic) is a strong live indicator. StreamingDetector
// trades the full prefix-consistency validation for immediacy: it raises an
// alert as soon as any prefix accumulates a replica stream of
// `min_replicas`, with a per-prefix hold-down to avoid alert storms.
//
// Memory is bounded by the number of distinct packets seen within one
// stream timeout (packet rate x stream timeout), independent of how long
// the detector runs: every packet retires the entries that went idle past
// stream_timeout, in O(1) amortised work, so the open table (the OpenTable
// the offline detector also uses) holds exactly the current window and there
// is no periodic sweep of it.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/open_table.h"
#include "core/replica_detector.h"
#include "core/replica_key.h"
#include "net/prefix.h"
#include "net/time.h"
#include "telemetry/decision_log.h"
#include "telemetry/registry.h"
#include "util/flat_map.h"

namespace rloop::core {

struct LoopAlert {
  net::Prefix prefix24;
  net::TimeNs first_seen = 0;  // first replica of the triggering stream
  net::TimeNs raised_at = 0;   // packet that crossed the threshold
  std::uint64_t replicas = 0;
  int ttl_delta = 0;
};

struct StreamingConfig {
  net::TimeNs stream_timeout = 10 * net::kSecond;
  int min_ttl_delta = 2;
  std::size_t min_replicas = 3;
  // At most one alert per prefix per hold-down interval.
  net::TimeNs alert_holddown = net::kMinute;
  // Out-of-order tolerance for live-capture jitter. A packet whose timestamp
  // is behind the stream by at most this much is clamped to the newest seen
  // timestamp and processed (rloop_streaming_reordered_total); one further
  // behind is dropped (rloop_streaming_reorder_dropped_total). on_packet
  // never throws on a timestamp regression.
  net::TimeNs reorder_tolerance_ns = 0;
  // Hard budget on tracked replica-candidate entries (0 = unbounded). When
  // an insert would exceed it, the oldest-touched entries are evicted, in
  // touch order, down to ~7/8 of the budget (rloop_streaming_evicted_total;
  // entries idle past stream_timeout are already gone and are not counted)
  // — so millions of distinct /24s fit a fixed RSS at the cost of possibly
  // restarting a starved stream's count.
  std::size_t max_open_entries = 0;
};

class StreamingDetector {
 public:
  using AlertCallback = std::function<void(const LoopAlert&)>;

  // One tracked replica-candidate stream (public so checkpoints can carry
  // the detector's open state byte-for-byte).
  struct OpenEntry {
    net::TimeNs first_ts = 0;
    net::TimeNs last_ts = 0;
    std::uint8_t last_ttl = 0;
    std::uint32_t replicas = 1;
    int last_delta = 0;
    net::Prefix prefix24;
  };

  // A complete, self-contained copy of the detector's mutable state: feed
  // the same packets to a restore()d detector and to the original and they
  // produce identical alerts. snapshot() sorts the open entries and
  // hold-downs (open entries by key hash, then key bytes) so the same state
  // always serializes to the same bytes, whichever table slots it occupies.
  // The order in which entries were last touched is not part of it:
  // restore() rebuilds the expiry order from last_ts.
  struct Snapshot {
    net::TimeNs last_ts = 0;
    std::uint64_t packets_seen = 0;
    std::uint64_t alerts_raised = 0;
    std::uint64_t reordered = 0;
    std::uint64_t reorder_dropped = 0;
    std::uint64_t evicted = 0;
    std::uint64_t sampled_dropped = 0;
    std::uint64_t peak_open = 0;
    std::uint32_t since_sweep = 0;
    std::vector<std::pair<ReplicaKey, OpenEntry>> open;
    std::vector<std::pair<net::Prefix, net::TimeNs>> holddowns;
  };

  // `registry` (optional) receives rloop_streaming_* counters and the live
  // open-entry gauge — the operator-facing loop-surge signal. `journal`
  // (optional) receives an alert_raised / alert_suppressed event per
  // threshold crossing.
  StreamingDetector(StreamingConfig config, AlertCallback on_alert,
                    telemetry::Registry* registry = nullptr,
                    telemetry::DecisionLog* journal = nullptr);

  // Feed one captured packet (bytes start at the IP header). Timestamps may
  // regress by up to reorder_tolerance_ns (clamped) — never throws on them.
  // If growing the detector's own tables throws std::bad_alloc, the
  // detector is left exactly as if it had never been given the packet (the
  // alert callback and the decision journal are outside that guarantee).
  void on_packet(net::TimeNs ts, std::span<const std::byte> bytes);

  // Replaces the tunable thresholds (reload path for a long-running daemon).
  // Takes effect for subsequent packets; tracked state is kept.
  void update_config(const StreamingConfig& config) { config_ = config; }
  const StreamingConfig& config() const { return config_; }

  // --- checkpoint/restore ---------------------------------------------------
  // Deterministic copy of all mutable state (see Snapshot). O(open_entries).
  Snapshot snapshot() const;
  // Replaces all mutable state with `snap` (config and callback are kept).
  // After restore, feeding the packets that followed the snapshot reproduces
  // the original alert sequence exactly.
  void restore(const Snapshot& snap);

  // --- graded degradation ---------------------------------------------------
  // Overload sampling (governor tier 3): process only one in `n` packets for
  // destinations that are not currently loop suspects; packets for suspect
  // /24s (an open entry with >=2 replicas, or a recent alert) always pass.
  // 0 or 1 restores full fidelity. Dropped packets are counted
  // (rloop_streaming_sampled_dropped_total) and never reach the parser.
  void set_sample_keep_one_in(std::uint32_t n) { sample_n_ = n; }
  std::uint32_t sample_keep_one_in() const { return sample_n_; }
  std::uint64_t sampled_dropped() const { return sampled_dropped_; }

  // Overload shedding (governor tier 1): detach/reattach the decision
  // journal without touching detection state.
  void set_journal(telemetry::DecisionLog* journal) { journal_ = journal; }

  // --- observability --------------------------------------------------------
  // One currently-open suspect stream, exported live via the daemon's
  // /loops endpoint: an open entry that has accumulated >= 2 replicas (the
  // same threshold that exempts a /24 from overload sampling).
  struct SuspectEntry {
    net::Prefix prefix24;
    net::TimeNs first_ts = 0;
    net::TimeNs last_ts = 0;
    std::uint32_t replicas = 0;
    int ttl_delta = 0;
  };

  // Deterministic copy of the open suspect entries: sorted by replicas
  // descending (hottest loop first), then prefix. `max` > 0 truncates —
  // callers copying at epoch boundaries bound the copy, not the caller's
  // patience. Same-thread-only, like every other detector accessor.
  std::vector<SuspectEntry> suspect_entries(std::size_t max = 0) const;

  std::uint64_t packets_seen() const { return packets_seen_; }
  std::uint64_t alerts_raised() const { return alerts_raised_; }
  // Out-of-order packets clamped into the stream / dropped as too late.
  std::uint64_t reordered() const { return reordered_; }
  std::uint64_t reorder_dropped() const { return reorder_dropped_; }
  // Entries evicted by the max_open_entries budget (not by normal timeout).
  std::uint64_t evicted() const { return evicted_; }
  // Open replica-candidate entries currently tracked (for memory tests).
  std::size_t open_entries() const { return open_.size(); }
  // High-water mark of open_entries() over the detector's lifetime; with a
  // budget configured this never exceeds max_open_entries.
  std::size_t peak_open_entries() const { return peak_open_; }

 private:
  void reserve_for_packet();
  void process(net::TimeNs ts, std::span<const std::byte> bytes);
  void tick(net::TimeNs now);

  StreamingConfig config_;
  AlertCallback on_alert_;
  telemetry::DecisionLog* journal_ = nullptr;
  telemetry::Counter* m_packets_ = nullptr;
  telemetry::Counter* m_parse_failures_ = nullptr;
  telemetry::Counter* m_alerts_ = nullptr;
  telemetry::Counter* m_suppressed_ = nullptr;
  telemetry::Counter* m_reordered_ = nullptr;
  telemetry::Counter* m_reorder_dropped_ = nullptr;
  telemetry::Counter* m_evicted_ = nullptr;
  telemetry::Counter* m_sampled_ = nullptr;
  telemetry::Gauge* m_open_entries_ = nullptr;
  // Last touched at last_ts; monotone after the reorder clamp, as expiry needs.
  OpenTable<OpenEntry> open_;
  util::FlatMap<net::Prefix, net::TimeNs> last_alert_;
  // /24s exempt from overload sampling: any open entry that has already
  // accumulated >=2 replicas, plus recently alerted prefixes. Trimmed every
  // 32 Ki packets so it cannot grow without bound; the value is the tick
  // that last confirmed the prefix.
  util::FlatMap<net::Prefix, std::uint32_t> suspects_;
  // Slots whose entry reached 2 replicas (may hold freed or reused slots
  // until the next tick); the tick rebuilds suspects_ from this list, not
  // from a scan of the open table.
  std::vector<std::uint32_t> suspect_slots_;
  std::uint32_t tick_ = 0;
  net::TimeNs last_ts_ = 0;
  std::uint64_t packets_seen_ = 0;
  std::uint64_t alerts_raised_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t reorder_dropped_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t sampled_dropped_ = 0;
  std::uint32_t sample_n_ = 0;
  std::uint32_t sample_tick_ = 0;
  std::size_t peak_open_ = 0;
  std::uint32_t since_sweep_ = 0;
};

}  // namespace rloop::core
