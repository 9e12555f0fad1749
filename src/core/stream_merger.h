// Step 3 of the paper's algorithm: merge replica streams into routing loops.
//
// Streams to the same /24 that overlap in time are almost certainly the same
// loop. Streams separated by less than `merge_gap` (paper: one minute; 2 and
// 5 minutes changed little) are also merged, provided no non-looped packet
// to the prefix falls in the gap — otherwise the loop demonstrably healed
// in between.
#pragma once

#include <cstdint>
#include <vector>

#include "core/prefix_index.h"
#include "core/record_store.h"
#include "core/replica_detector.h"
#include "net/prefix.h"
#include "net/time.h"
#include "telemetry/decision_log.h"
#include "telemetry/registry.h"

namespace rloop::core {

struct RoutingLoop {
  net::Prefix prefix24;
  net::TimeNs start = 0;
  net::TimeNs end = 0;
  // Indices into the validated-stream vector passed to merge().
  std::vector<std::uint32_t> stream_indices;
  std::uint64_t replica_count = 0;
  // Mode of the member streams' dominant TTL deltas: the loop's hop count.
  int ttl_delta = 0;

  net::TimeNs duration() const { return end - start; }
  std::size_t stream_count() const { return stream_indices.size(); }
};

struct MergerConfig {
  net::TimeNs merge_gap = net::kMinute;
};

class StreamMerger {
 public:
  // `registry` (optional) receives merge and loop counters. `journal`
  // (optional) receives one event per merge decision: loop_extended when a
  // stream folds into an open loop, loop_split_gap / loop_split_healthy when
  // it cannot (with the gap and refuting evidence), loop_emitted per loop.
  explicit StreamMerger(MergerConfig config = {},
                        telemetry::Registry* registry = nullptr,
                        telemetry::DecisionLog* journal = nullptr);

  // `valid_streams` is the validator's output; `records` the parsed trace
  // (needed to check gaps for non-looped traffic). Returns loops ordered by
  // (prefix, start time).
  std::vector<RoutingLoop> merge(
      const std::vector<ParsedRecord>& records,
      const std::vector<ReplicaStream>& valid_streams) const;

  // Columnized equivalent: identical loops, with the NonLoopedIndex built
  // from the SoA store's columns, scoped to the streams' own prefixes (the
  // only ones a gap check queries), instead of from every ParsedRecord.
  // detect_loops() runs this overload.
  std::vector<RoutingLoop> merge(
      const RecordStore& store,
      const std::vector<ReplicaStream>& valid_streams) const;

 private:
  // The merge loop, shared by both merge() overloads (they differ only in
  // how the NonLoopedIndex is built).
  std::vector<RoutingLoop> merge_with_index(
      const NonLoopedIndex& index,
      const std::vector<ReplicaStream>& valid_streams) const;

  MergerConfig config_;
  telemetry::DecisionLog* journal_ = nullptr;
  telemetry::Counter* m_merges_ = nullptr;
  telemetry::Counter* m_loops_ = nullptr;
};

}  // namespace rloop::core
