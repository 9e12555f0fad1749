// The offline detection pipeline: detect_loops() (declared in
// loop_detector.h), one implementation for every thread count. It lives in
// pipeline.cc, which also names the rloop_pipeline_stage_latency_ns,
// rloop_pipeline_shard_latency_ns and rloop_pipeline_parse_failures_total
// families it records.
//
// Step 1 runs as one fan-out of T identical bodies with a single barrier.
// A one-thread run runs its body on the calling thread and starts no
// thread. Above one thread the bodies run on T pool workers, one each, and
// the caller only opens and closes the stage spans, asleep in between: a
// caller that ran a body too never slept, so the scheduler kept it on one
// core across back-to-back calls, and every single-threaded run on that
// thread took that one core's speed. Body t:
//
//   1. fills (RecordStore::fill_row) the store rows of the contiguous range
//      [t*n/T, (t+1)*n/T), counting parse failures, and appends each parsed
//      row to bucket (t, u), where body u owns the row's shard;
//   2. waits until every body has;
//   3. for the shards it owns (s % T == t): resets each shard's RepeatMark
//      and fills it from buckets (0, t) .. (T-1, t), then feeds the same
//      buckets, in that order — which is trace order — to each record's
//      FlatDetectState;
//   4. finish()es each shard it owns.
//
// The mark needs every key hash before the first record is fed (a record
// is a one-off only if no later record shares its hash), hence the
// barrier. Filling contiguous ranges means no two bodies write one cache
// line of the store except at a range edge. After the barrier no body
// waits on another: each shard's state is written and read by its owner
// only. A one-thread run has one shard (ParallelConfig::num_shards), so it
// marks every parsed record in one RepeatMark and feeds one state the
// whole trace in order: the serial run is the one-shard case, not a
// separate path.
// Partitioning invariants:
//  - every parsed record belongs to exactly one body (shard s of the
//    record's replica-key hash is owned by body s % T);
//  - all records of one shard are fed by one body in trace order, so each
//    FlatDetectState sees exactly the record sequence a single state fed
//    the whole trace would see for those keys, and the concatenate + sort
//    merge reproduces the one-shard stream order (the argument in
//    parallel.h);
//  - a shard's mark holds exactly the key hashes of that shard's records,
//    so a record skipped there is a one-off of the whole trace (the marks
//    of different shard counts differ only in which one-offs a shared
//    bucket lets through, which moves the opened/expired candidate counts
//    only).
// Validate and merge then run once on the calling thread: they need the
// full raw-stream set, and they query only the /24s of the few streams
// step 1 emits, so a fan-out would cost more than it saves.
//
// Stages: the root span "detect_loops", then "parse" (from the workspace
// prep through the fan-out to the barrier, as the caller sees it),
// "detect" (from the barrier to the merged raw streams), "validate" and
// "merge", each also a rloop_pipeline_stage_latency_ns{stage} sample, all
// on the calling thread — the same at every T. At T > 1 every body also
// emits its per-body spans, top level in its worker's lane.
//
// PipelineWorkspace owns everything reusable across runs: the thread pool,
// the SoA store, the shard-owner table, the T x T record buckets, and one
// warm FlatDetectState per shard (arena, open-table and mark capacity
// persist). It holds no telemetry between runs: the pool is attached to
// each run's registry for that run only. Callers that run repeatedly keep
// one workspace across runs (the allocation pins in
// tests/test_memory_layout.cc count a warm run); detect_loops() creates a
// transient one when the config carries none.
#pragma once

#include <memory>

#include "core/loop_detector.h"

namespace rloop::core {

// May be reused across calls and across differing configs: the pool is
// rebuilt when the thread count changes, and the per-shard states follow
// the shard count.
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

}  // namespace rloop::core
