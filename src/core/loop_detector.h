// The full three-step detection pipeline (paper Section IV) as one call.
#pragma once

#include <cstdint>
#include <vector>

#include "core/parallel.h"
#include "core/record.h"
#include "core/replica_detector.h"
#include "core/stream_merger.h"
#include "core/stream_validator.h"
#include "net/trace.h"
#include "telemetry/decision_log.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace rloop::core {

class PipelineWorkspace;  // core/pipeline.h

struct LoopDetectorConfig {
  ReplicaDetectorConfig detector;
  ValidatorConfig validator;
  MergerConfig merger;
  // Multi-threaded execution. num_threads <= 1 (the default) is the serial
  // path; > 1 runs the sharded pipeline (core/pipeline.h): num_threads
  // identical pool bodies parse a slice each, then detect the shards they
  // own (sharded by replica-key hash), then validate and merge run once,
  // through the same calls as the serial path.
  // Results are field-identical to the serial path for every thread/shard
  // count — see parallel.h for the argument and
  // tests/test_parallel_pipeline.cc for the proof harness.
  ParallelConfig parallel;
  // Optional metrics sink. When set, every stage records a wall-clock
  // latency histogram (rloop_pipeline_stage_latency_ns{stage=...}); the
  // parallel path additionally records per-shard detect latency
  // (rloop_pipeline_shard_latency_ns{stage="detect",shard=...}), stage
  // busy/idle time and thread-pool queue depth and task counts; and the
  // stage objects register their own counters. The registry need only
  // outlive the call, even when a workspace is reused. When null the
  // pipeline runs with zero telemetry overhead: no metric is resolved, no
  // label set is built, and nothing is allocated for telemetry.
  telemetry::Registry* registry = nullptr;
  // Optional span sink: a root "detect_loops" span, one span per stage
  // (parse/detect/validate/merge; the parallel path has no parse span, its
  // front is one detect stage), and on the parallel path the detect front's
  // per-body spans
  // (parse_chunk/mark_shards/detect_chunk/detect_shard), exportable as
  // Chrome trace-event JSON (TraceSink::chrome_trace_json).
  // Null costs one predictable branch per would-be span.
  telemetry::TraceSink* trace = nullptr;
  // Optional decision journal: every stage records its per-stream /
  // per-replica-match verdicts with typed reasons (see decision_log.h).
  telemetry::DecisionLog* journal = nullptr;
  // Optional persistent workspace for the parallel path (core/pipeline.h).
  // The sharded pipeline reuses its thread pool, SoA store, shard-id
  // column, per-body record lists and per-shard detect states across
  // calls, so a warm run's steady-state allocation rate drops below the
  // serial path's (tests/test_memory_layout.cc pins this). Null makes
  // detect_loops() build a transient workspace per call; results are
  // identical either way.
  PipelineWorkspace* workspace = nullptr;
};

struct LoopDetectionResult {
  // No longer filled by detect_loops(); removed with the benchmark change.
  // Stream and loop record indices are positions in the input trace.
  std::vector<ParsedRecord> records;
  // Step 1 output: every stream with >= 2 replicas.
  std::vector<ReplicaStream> raw_streams;
  // Step 2 output; loops' stream_indices point into this vector.
  std::vector<ReplicaStream> valid_streams;
  // Step 3 output.
  std::vector<RoutingLoop> loops;

  ValidationStats validation;
  std::uint64_t total_records = 0;
  std::uint64_t parse_failures = 0;

  // Total trace records that are replicas of looped packets (members of
  // validated streams, originals included) — Table I's "looped packets".
  std::uint64_t looped_packet_records() const;
  // Unique packets caught in loops (one per validated stream).
  std::uint64_t looped_unique_packets() const { return valid_streams.size(); }
};

// Runs parse -> detect -> validate -> merge on `trace`. Defined in
// core/pipeline.cc, next to the sharded pipeline it dispatches to.
LoopDetectionResult detect_loops(const net::Trace& trace,
                                 const LoopDetectorConfig& config = {});

}  // namespace rloop::core
