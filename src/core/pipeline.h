// The offline detection pipeline: detect_loops() (declared in
// loop_detector.h) and its one parallel path, the staged, epoch-overlapped
// dataflow below. Both live in pipeline.cc, which also names the
// rloop_pipeline_stage_latency_ns and rloop_pipeline_parse_failures_total
// families they record.
//
// The serial path runs parse, columnize, detect, validate and merge one
// after another. A barrier-style parallel version of that sequence would
// join the pool between stages; on traces where parse and hash dominate,
// the joins leave workers idle for most of the wall clock. The staged front
// here instead fuses ingest -> parse -> columnize -> shard-detect into one
// pass over the trace, pipelined by epoch:
//
//   driver (body 0)            workers (bodies 1..W)
//   ------------------         -------------------------------------------
//   epoch N+1: hash bytes,     epoch N: parse records, fill store rows,
//   SIMD shard-assign,         feed each record to its shard's detect
//   partition indices,    -->  state machine (FlatDetectState)
//   push batch per worker      ...
//   (bounded SPSC rings)       on drain: finish() each owned shard
//
// The driver stays one-to-eight epochs ahead of the workers (ring depth
// bounds the overlap and the memory), so epoch N+1's hashing runs
// concurrently with epoch N's parse/detect instead of waiting for it.
// Partitioning invariants:
//  - every record index is assigned to exactly one worker (shard s of the
//    record's replica-key hash goes to worker s % W), so every store row and
//    every records[] slot is written exactly once, by one thread;
//  - all records of one shard land on one worker in trace order, so each
//    FlatDetectState sees exactly the record sequence the serial detector
//    feeds it, and the concatenate + sort merge reproduces the serial
//    stream order (same argument as parallel.h).
// Validate and merge each run as one sharded fan-out after the front — they
// need the full raw-stream set — on workspace-owned scratch, so a warm run
// allocates nothing in either stage.
//
// PipelineWorkspace owns everything reusable across runs: the thread pool,
// the SoA store, the hash/shard scratch columns, the per-worker batch rings,
// one warm FlatDetectState per shard (arena + open-table capacity persist),
// and the validator/merger scratch. It holds no telemetry between runs: the
// pool is attached to each run's registry and span sink for that run only.
// bench/bench_to_json.cc keeps one workspace across repetitions to pin the
// steady-state allocation rate; detect_loops() creates a transient one when
// the config carries none.
#pragma once

#include <memory>

#include "core/loop_detector.h"
#include "net/trace.h"

namespace rloop::core {

class PipelineWorkspace {
 public:
  PipelineWorkspace();
  ~PipelineWorkspace();
  PipelineWorkspace(const PipelineWorkspace&) = delete;
  PipelineWorkspace& operator=(const PipelineWorkspace&) = delete;

  struct Impl;
  Impl& impl() { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

// Runs the staged-dataflow pipeline on `trace`. Requires
// config.parallel.enabled(); output is field-identical to the serial
// detect_loops() for every (num_threads, shard_bits) — the differential
// harness in tests/test_parallel_pipeline.cc runs both and compares field
// by field. The workspace may be reused across calls and across differing
// configs (pool and per-shard state are rebuilt when the shape changes).
LoopDetectionResult detect_loops_pipelined(const net::Trace& trace,
                                           const LoopDetectorConfig& config,
                                           PipelineWorkspace& workspace);

}  // namespace rloop::core
