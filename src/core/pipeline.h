// The offline detection pipeline: detect_loops() (declared in
// loop_detector.h) and its one parallel path, the sharded fan-out below.
// Both live in pipeline.cc, which also names the
// rloop_pipeline_stage_latency_ns and rloop_pipeline_parse_failures_total
// families they record.
//
// The serial path runs parse (RecordStore::build), detect, validate and
// merge one after another. The parallel path runs step 1 as one fan-out of
// T identical pool bodies with a single barrier. Body t:
//
//   1. fills (RecordStore::fill_row) and shard-assigns the store rows of
//      the contiguous range [t*n/T, (t+1)*n/T), counting parse failures;
//   2. waits until every body has;
//   3. for the shards it owns (s % T == t): resets each shard's RepeatMark
//      and fills it in one scan of the shard-id column, which also lists
//      the body's records, then feeds that list, in trace order, to each
//      record's FlatDetectState;
//   4. finish()es each shard it owns.
//
// The mark needs every key hash before the first record is fed (a record
// is a one-off only if no later record shares its hash), hence the
// barrier. Filling contiguous ranges means no two bodies write one cache
// line of the store except at a range edge. After the barrier
// no body waits on another: each shard's state is written and read by its
// owner only.
// Partitioning invariants:
//  - every parsed record belongs to exactly one body (shard s of the
//    record's replica-key hash is owned by body s % T);
//  - all records of one shard are fed by one body in trace order, so each
//    FlatDetectState sees exactly the record sequence the serial detector
//    feeds it, and the concatenate + sort merge reproduces the serial
//    stream order (the argument in parallel.h);
//  - a shard's mark holds exactly the key hashes of that shard's records,
//    so a record skipped there is a one-off of the whole trace, as on the
//    serial path (the marks differ only in which one-offs a shared bucket
//    lets through, which moves the opened/expired candidate counts only).
// Validate and merge then run once on the calling thread, through the same
// validate_and_merge tail the serial path runs: they need the full
// raw-stream set, and they query only the /24s of the few streams the front
// emits, so a fan-out would cost more than it saves.
//
// PipelineWorkspace owns everything reusable across runs: the thread pool,
// the SoA store, the shard-id column, the shard-owner table, each body's
// record list, and one warm FlatDetectState per shard (arena, open-table
// and mark capacity persist). It holds no telemetry between runs: the pool
// is attached to each run's registry and span sink for that run only.
// Callers that run repeatedly keep one workspace across runs (the
// allocation pins in tests/test_memory_layout.cc count a warm run);
// detect_loops() creates a transient one when the config carries none.
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

// Runs the sharded pipeline on `trace`. Requires
// config.parallel.enabled(); output is field-identical to the serial
// detect_loops() for every (num_threads, shard_bits) — the differential
// harness in tests/test_parallel_pipeline.cc runs both and compares field
// by field. The workspace may be reused across calls and across differing
// configs (pool and per-shard state are rebuilt when the shape changes).
LoopDetectionResult detect_loops_pipelined(const net::Trace& trace,
                                           const LoopDetectorConfig& config,
                                           PipelineWorkspace& workspace);

}  // namespace rloop::core
