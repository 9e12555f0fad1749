// Step 1 of the paper's algorithm: detect replicas and group them into
// replica streams.
//
// A stream grows while each new observation of the same normalized header
// has a TTL at least `min_ttl_delta` below the previous one (a loop spans at
// least two routers, so a replica returns with TTL reduced by >= 2).
// Observations with *equal* TTL are link-layer duplicates (token-ring
// drain failures, SONET protection-layer copies — paper §IV-A.2); they are
// kept in the stream so that step 2 can discard two-element streams, but a
// TTL *increase* or a stale stream (quiet longer than `stream_timeout`)
// starts a fresh stream for the same key (IP ID wrap / retransmission with
// identical bytes).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/record.h"
#include "core/record_store.h"
#include "core/replica_key.h"
#include "net/time.h"
#include "telemetry/decision_log.h"
#include "telemetry/registry.h"

namespace rloop::core {

namespace detail {
struct FlatDetectState;  // core/detect_state.h
struct LocalCounts;
}  // namespace detail

struct Replica {
  std::uint32_t record_index = 0;
  net::TimeNs ts = 0;
  std::uint8_t ttl = 0;
};

// Occurrences of each TTL delta, indexed by delta. A delta fits [1, 255];
// slot 0 is never read.
using TtlDeltaCounts = std::array<std::uint32_t, 256>;

// The most frequent delta in `counts`, ties going to the smallest; 0 when
// every delta count is zero. The hop-count mode of a stream
// (dominant_ttl_delta) and of a merged loop (StreamMerger) alike.
int ttl_delta_mode(const TtlDeltaCounts& counts);

struct ReplicaStream {
  ReplicaKey key;
  net::Ipv4Addr dst;
  net::Prefix dst24;
  std::vector<Replica> replicas;  // in time order

  std::size_t size() const { return replicas.size(); }
  net::TimeNs start() const { return replicas.front().ts; }
  net::TimeNs end() const { return replicas.back().ts; }
  net::TimeNs duration() const { return end() - start(); }

  // TTL differences between successive replicas (zero entries are
  // link-layer duplicates).
  std::vector<int> ttl_deltas() const;
  // The most common nonzero TTL delta — the loop's hop count. Returns 0 when
  // the stream contains only equal-TTL duplicates.
  int dominant_ttl_delta() const;
  // Mean spacing between successive replicas, the paper's Figure 4 metric.
  double mean_spacing_ns() const;
};

struct ReplicaDetectorConfig {
  // A key quiet for longer than this closes its stream. Loops the paper
  // found last seconds; 10 s is comfortably past any replica gap.
  net::TimeNs stream_timeout = 10 * net::kSecond;
  // Minimum TTL decrease between successive replicas (paper: 2).
  int min_ttl_delta = 2;
  // Accept equal-TTL observations as link-layer duplicates within a stream.
  bool keep_link_layer_duplicates = true;
};

class ReplicaDetector {
 public:
  // `registry` (optional) receives rloop_detector_* counters and the
  // inter-replica spacing histogram; metrics resolve once here, never in
  // detect(). `journal` (optional) receives per-match decisions: a
  // replica_accepted / replica_rejected event for every observation that had
  // an open candidate stream, and a stream_emitted event per closed stream
  // (ordinary first-seen packets are not journaled — they would flood the
  // ring with non-decisions).
  explicit ReplicaDetector(ReplicaDetectorConfig config = {},
                           telemetry::Registry* registry = nullptr,
                           telemetry::DecisionLog* journal = nullptr);

  // Returns every stream with at least two elements, ordered by start time.
  // The store is the filled trace (RecordStore::build); records with
  // ok == false are ignored. detect_loops() does not call this: it runs the
  // same engine on warm per-shard states (a one-thread run has one shard
  // and does this exact work). The hot path runs on the streaming detector's
  // open-stream table (core/open_table.h), with no sweep, and arena-backed
  // replica lists (util/arena.h); output is field-identical to
  // detect_reference() — tests/test_memory_layout.cc proves it.
  std::vector<ReplicaStream> detect(const RecordStore& store) const;

  // Pipeline hooks: core/pipeline.cc keeps one warm flat state per shard
  // across runs, so it cannot call detect(). bind() points a state at
  // this detector's config, spacing histogram and journal; publish() adds a
  // run's counts to this detector's counters. detect() is bind, process,
  // finish and publish on one state.
  void bind(detail::FlatDetectState& state) const;
  void publish(const detail::LocalCounts& counts) const;

  // The pre-flat-map engine (std::unordered_map of std::vector streams),
  // retained verbatim as the differential oracle: detect() must produce
  // field-identical output on every input (tests/test_memory_layout.cc,
  // and rloopbench's oracle). Not used by the pipeline.
  std::vector<ReplicaStream> detect_reference(
      const net::Trace& trace,
      const std::vector<ParsedRecord>& records) const;

 private:
  ReplicaDetectorConfig config_;
  telemetry::DecisionLog* journal_ = nullptr;
  telemetry::Counter* m_records_ = nullptr;
  telemetry::Counter* m_replicas_ = nullptr;
  telemetry::Counter* m_streams_opened_ = nullptr;
  telemetry::Counter* m_streams_expired_ = nullptr;
  telemetry::Counter* m_streams_emitted_ = nullptr;
  telemetry::Histogram* m_spacing_ = nullptr;
};

// Marks which record indices belong to any stream in `streams`.
std::vector<bool> stream_membership(std::size_t record_count,
                                    const std::vector<ReplicaStream>& streams);

}  // namespace rloop::core
