// Step 2 of the paper's algorithm: validate replica streams.
//
// Two conditions (Section IV-A.2):
//  1. A stream must have at least `min_replicas` elements. Two-element
//     "streams" are usually link-layer duplication (token ring drain
//     failures, misconfigured SONET protection), not loops.
//  2. During the stream's lifetime, every packet to the same /24 destination
//     prefix must itself be looped: a routing loop black-holes the whole
//     prefix, so a non-looped packet to the prefix inside the interval
//     refutes the loop hypothesis.
#pragma once

#include <cstdint>
#include <vector>

#include "core/prefix_index.h"
#include "core/record_store.h"
#include "core/replica_detector.h"
#include "telemetry/decision_log.h"
#include "telemetry/registry.h"

namespace rloop::core {

struct ValidatorConfig {
  // The paper uses 3: eliminate streams "having only two elements".
  std::size_t min_replicas = 3;
};

struct ValidationStats {
  std::uint64_t input_streams = 0;
  std::uint64_t rejected_too_small = 0;
  std::uint64_t rejected_prefix_conflict = 0;
  std::uint64_t accepted = 0;
};

class StreamValidator {
 public:
  // `registry` (optional) receives per-reason rejection counters. `journal`
  // (optional) receives one verdict event per stream (stream_accepted /
  // stream_rejected_min_replicas / stream_rejected_nonlooped, the latter
  // with the refuting packet's timestamp as evidence) and fires the
  // flight-recorder auto-dump on every rejection.
  explicit StreamValidator(ValidatorConfig config = {},
                           telemetry::Registry* registry = nullptr,
                           telemetry::DecisionLog* journal = nullptr);

  // `streams` is the raw output of ReplicaDetector::detect; `records` the
  // full parsed trace. Returns the surviving streams in input order and
  // fills `stats` when non-null.
  std::vector<ReplicaStream> validate(const std::vector<ParsedRecord>& records,
                                      std::vector<ReplicaStream> streams,
                                      ValidationStats* stats = nullptr) const;

  // Columnized equivalent: identical verdicts, with the NonLoopedIndex built
  // from the SoA store's columns, scoped to the streams' own prefixes (the
  // only ones a verdict queries), instead of from every ParsedRecord. Both
  // offline paths (serial and pipelined detect_loops) run this overload.
  std::vector<ReplicaStream> validate(const RecordStore& store,
                                      std::vector<ReplicaStream> streams,
                                      ValidationStats* stats = nullptr) const;

 private:
  // The verdict loop, shared by both validate() overloads (they differ
  // only in how the NonLoopedIndex is built).
  std::vector<ReplicaStream> validate_with_index(
      const NonLoopedIndex& index, std::vector<ReplicaStream> streams,
      ValidationStats* stats) const;

  ValidatorConfig config_;
  telemetry::DecisionLog* journal_ = nullptr;
  telemetry::Counter* m_accepted_ = nullptr;
  telemetry::Counter* m_rejected_small_ = nullptr;
  telemetry::Counter* m_rejected_conflict_ = nullptr;
};

}  // namespace rloop::core
