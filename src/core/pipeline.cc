#include "core/pipeline.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/detect_state.h"
#include "core/parallel.h"
#include "core/record_store.h"
#include "core/replica_key.h"
#include "core/stream_merger.h"
#include "core/stream_validator.h"
#include "telemetry/counter.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"
#include "util/spsc_ring.h"
#include "util/thread_pool.h"

namespace rloop::core {

namespace {

// Records per epoch. Large enough that per-epoch synchronization (one ring
// push per worker per epoch) is noise against the per-record work; small
// enough that the driver's read-ahead (at most kRingDepth epochs per worker)
// keeps the shard ids it touches within cache reach of the workers
// consuming them.
constexpr std::size_t kEpochRecords = std::size_t{1} << 15;
constexpr std::size_t kRingDepth = 8;

telemetry::Histogram* stage_histogram(telemetry::Registry* registry,
                                      const char* stage) {
  return telemetry::get_histogram(
      registry, "rloop_pipeline_stage_latency_ns",
      telemetry::latency_bounds_ns(), {{"stage", stage}},
      "Wall-clock latency of one detection-pipeline stage per call");
}

// Tallies result.parse_failures from result.records and adds it to the
// registry's parse-failure counter.
void count_parse_failures(telemetry::Registry* registry,
                          LoopDetectionResult& result) {
  for (const auto& rec : result.records) {
    if (!rec.ok) ++result.parse_failures;
  }
  telemetry::inc(telemetry::get_counter(
                     registry, "rloop_pipeline_parse_failures_total", {},
                     "Trace records whose IP header failed to parse"),
                 result.parse_failures);
}

// Steps 2 and 3 over result.raw_streams: the one tail both offline paths
// run once step 1 has filled `store` and the raw streams. Both are per-/24
// range queries over the streams step 1 emitted, a small share of a run
// next to detection, so they run on the calling thread.
void validate_and_merge(const RecordStore& store,
                        const LoopDetectorConfig& config,
                        LoopDetectionResult& result) {
  telemetry::Registry* reg = config.registry;
  {
    const telemetry::ScopedTimer timer(stage_histogram(reg, "validate"));
    const telemetry::ScopedSpan span(config.trace, "validate");
    const StreamValidator validator(config.validator, reg, config.journal);
    result.valid_streams =
        validator.validate(store, result.raw_streams, &result.validation);
  }
  {
    const telemetry::ScopedTimer timer(stage_histogram(reg, "merge"));
    const telemetry::ScopedSpan span(config.trace, "merge");
    const StreamMerger merger(config.merger, reg, config.journal);
    result.loops = merger.merge(store, result.valid_streams);
  }
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One epoch's work for one worker: the record indices (in trace order) whose
// shards that worker owns. Recycled through the worker's free ring; the
// index vector keeps its capacity across epochs and across runs.
struct EpochBatch {
  std::vector<std::uint32_t> indices;
};

// The SPSC pair between the driver and one worker. Batches cycle
// driver-pop(free) -> fill -> push(work) -> worker-pop(work) -> process ->
// push(free); with kRingDepth batches in circulation the work ring can never
// overflow, so both pushes are infallible, and an empty free ring is exactly
// the back-pressure that bounds the driver's read-ahead.
struct Lane {
  Lane() : work(kRingDepth), free(kRingDepth) {
    for (auto& b : storage) b = std::make_unique<EpochBatch>();
  }
  util::SpscRing<EpochBatch*> work;
  util::SpscRing<EpochBatch*> free;
  std::array<std::unique_ptr<EpochBatch>, kRingDepth> storage;
};

// Attaches a call's telemetry sinks to the workspace pool and detaches them
// on every exit, exceptions included: the workspace outlives the call, and
// the next call's registry may be a different object at the same address.
class ScopedPoolTelemetry {
 public:
  ScopedPoolTelemetry(util::ThreadPool& pool, telemetry::Registry* registry,
                      telemetry::TraceSink* trace)
      : pool_(pool) {
    pool_.set_telemetry(registry, trace);
  }
  ~ScopedPoolTelemetry() { pool_.set_telemetry(nullptr, nullptr); }
  ScopedPoolTelemetry(const ScopedPoolTelemetry&) = delete;
  ScopedPoolTelemetry& operator=(const ScopedPoolTelemetry&) = delete;

 private:
  util::ThreadPool& pool_;
};

}  // namespace

struct PipelineWorkspace::Impl {
  // Rebuilt only when the thread count changes. It holds no telemetry
  // between calls (see ScopedPoolTelemetry).
  std::unique_ptr<util::ThreadPool> pool;

  RecordStore store;
  std::vector<std::uint32_t> shard_ids;  // mix64(key hash) & (shards - 1)
  std::vector<std::uint32_t> shard_owner;  // shard -> worker (s % workers)
  std::vector<EpochBatch*> claimed;       // driver's per-worker batch in hand

  std::vector<std::unique_ptr<Lane>> lanes;                 // one per worker
  std::vector<std::unique_ptr<detail::FlatDetectState>> states;  // per shard
  std::vector<telemetry::Histogram*> detect_shard_hist;
};

PipelineWorkspace::PipelineWorkspace() : impl_(std::make_unique<Impl>()) {}
PipelineWorkspace::~PipelineWorkspace() = default;

LoopDetectionResult detect_loops_pipelined(const net::Trace& trace,
                                           const LoopDetectorConfig& config,
                                           PipelineWorkspace& workspace) {
  auto& ws = workspace.impl();
  telemetry::Registry* reg = config.registry;
  const unsigned num_threads = std::max(2u, config.parallel.num_threads);
  const unsigned num_workers = num_threads - 1;
  const unsigned num_shards = config.parallel.num_shards();
  const std::size_t n = trace.size();

  if (!ws.pool || ws.pool->size() != num_threads) {
    ws.pool.reset();
    ws.pool = std::make_unique<util::ThreadPool>(num_threads);
  }
  const ScopedPoolTelemetry pool_telemetry(*ws.pool, reg, config.trace);

  LoopDetectionResult result;
  const telemetry::ScopedSpan root_span(config.trace, "detect_loops");

  {
    const telemetry::ScopedTimer timer(stage_histogram(reg, "detect"));
    const telemetry::ScopedSpan span(config.trace, "detect");

    // --- Workspace prep (all capacity-reusing once warm). -----------------
    ws.store.prepare(trace, n);
    ws.shard_ids.resize(n);
    result.records.resize(n);
    if (ws.lanes.size() != num_workers) {
      ws.lanes.clear();
      for (unsigned w = 0; w < num_workers; ++w) {
        ws.lanes.push_back(std::make_unique<Lane>());
      }
    }
    // Restore the all-batches-free invariant (an aborted previous run can
    // strand batches in a work ring).
    for (auto& lane : ws.lanes) {
      EpochBatch* b = nullptr;
      while (lane->work.try_pop(b)) {
      }
      while (lane->free.try_pop(b)) {
      }
      for (auto& owned : lane->storage) lane->free.try_push(owned.get());
    }
    ws.claimed.assign(num_workers, nullptr);

    const ReplicaDetector detector(config.detector, reg, config.journal);
    ws.states.resize(num_shards);
    for (auto& state : ws.states) {
      if (!state) state = std::make_unique<detail::FlatDetectState>();
      detector.bind(*state);
      state->reset();
    }
    ws.shard_owner.resize(num_shards);
    ws.detect_shard_hist.resize(num_shards);
    for (unsigned s = 0; s < num_shards; ++s) {
      ws.shard_owner[s] = s % num_workers;
      ws.detect_shard_hist[s] = telemetry::get_histogram(
          reg, "rloop_pipeline_shard_latency_ns",
          telemetry::latency_bounds_ns(),
          {{"stage", "detect"}, {"shard", std::to_string(s)}},
          "Wall-clock latency of one pipeline shard per sharded call");
    }
    // Every shard's mark is sized for an even share of the trace: mix64
    // spreads key hashes evenly, and the size only moves the share of
    // one-offs a shared bucket lets through.
    const std::size_t shard_records = (n + num_shards - 1) / num_shards;

    // Stage-occupancy counters: busy is time spent parsing / partitioning
    // (driver) or parsing / marking / detecting (workers); idle is time
    // blocked on the pre-pass barrier or the rings. Accumulated locally
    // per thread, flushed once at thread exit.
    telemetry::Counter* ingest_busy = telemetry::get_counter(
        reg, "rloop_pipeline_stage_busy_ns_total", {{"stage", "ingest"}},
        "Nanoseconds a pipeline stage spent doing work");
    telemetry::Counter* ingest_idle = telemetry::get_counter(
        reg, "rloop_pipeline_stage_idle_ns_total", {{"stage", "ingest"}},
        "Nanoseconds a pipeline stage spent waiting on its queues");
    telemetry::Counter* detect_busy = telemetry::get_counter(
        reg, "rloop_pipeline_stage_busy_ns_total", {{"stage", "detect"}},
        "Nanoseconds a pipeline stage spent doing work");
    telemetry::Counter* detect_idle = telemetry::get_counter(
        reg, "rloop_pipeline_stage_idle_ns_total", {{"stage", "detect"}},
        "Nanoseconds a pipeline stage spent waiting on its queues");
    const bool timed = ingest_busy != nullptr;

    std::atomic<bool> abort{false};
    std::atomic<bool> done{false};

    // --- Pre-pass (every body): parse one contiguous range, then wait. ---
    // A shard's RepeatMark needs every key hash of the trace before its
    // first record is fed, so the front is a phase of its own: each body
    // parses, columnizes, hashes and shard-assigns 1/num_threads of the
    // trace — contiguous rows, so no two bodies write one cache line of
    // the store or records[] except at a range edge — and no body goes on
    // until all have (the counter's release/acquire pairs publish every
    // body's rows and shard ids to every other). Returns false on abort.
    std::atomic<unsigned> parsed{0};
    const auto parse_pass = [&](unsigned t, std::uint64_t& busy,
                                std::uint64_t& idle) {
      const std::int64_t t0 = timed ? now_ns() : 0;
      {
        const telemetry::ScopedSpan span(config.trace, "parse_chunk");
        const std::size_t lo = n * t / num_threads;
        const std::size_t hi = n * (t + 1) / num_threads;
        // num_shards is 1 << shard_bits (ParallelConfig), so the mask
        // picks a shard uniformly.
        for (std::size_t i = lo; i < hi; ++i) {
          const ParsedRecord rec = parse_record(trace, i);
          const std::uint64_t h =
              rec.ok ? replica_key_hash(trace[i].bytes()) : 0;
          ws.store.set_row(i, rec, h);
          result.records[i] = rec;
          ws.shard_ids[i] =
              static_cast<std::uint32_t>(mix64(h) & (num_shards - 1));
        }
      }
      parsed.fetch_add(1, std::memory_order_acq_rel);
      const std::int64_t t1 = timed ? now_ns() : 0;
      while (parsed.load(std::memory_order_acquire) < num_threads) {
        if (abort.load(std::memory_order_acquire)) return false;
        std::this_thread::yield();
      }
      if (timed) {
        busy += static_cast<std::uint64_t>(t1 - t0);
        idle += static_cast<std::uint64_t>(now_ns() - t1);
      }
      return true;
    };

    // --- Driver (body 0): parse its range, then partition and feed. -------
    const auto run_driver = [&] {
      std::uint64_t busy = 0;
      std::uint64_t idle = 0;
      if (!parse_pass(0, busy, idle)) return;
      for (std::size_t lo = 0; lo < n; lo += kEpochRecords) {
        const std::size_t hi = std::min(n, lo + kEpochRecords);
        const std::int64_t t1 = timed ? now_ns() : 0;
        // Claim one batch per worker. An empty free ring means that worker
        // is kRingDepth epochs behind — waiting here is the back-pressure
        // that bounds the driver's read-ahead.
        for (unsigned w = 0; w < num_workers; ++w) {
          EpochBatch* b = nullptr;
          while (!ws.lanes[w]->free.try_pop(b)) {
            if (abort.load(std::memory_order_acquire)) return;
            std::this_thread::yield();
          }
          b->indices.clear();
          ws.claimed[w] = b;
        }
        const std::int64_t t2 = timed ? now_ns() : 0;
        // Partition: shard s belongs to worker s % num_workers. Parse
        // failures never reach the detector, so they are not routed.
        for (std::size_t i = lo; i < hi; ++i) {
          if (!ws.store.ok(i)) continue;
          ws.claimed[ws.shard_owner[ws.shard_ids[i]]]->indices.push_back(
              static_cast<std::uint32_t>(i));
        }
        for (unsigned w = 0; w < num_workers; ++w) {
          ws.lanes[w]->work.try_push(ws.claimed[w]);  // never full: see Lane
        }
        if (timed) {
          const std::int64_t t3 = now_ns();
          busy += static_cast<std::uint64_t>(t3 - t2);
          idle += static_cast<std::uint64_t>(t2 - t1);
        }
      }
      done.store(true, std::memory_order_release);
      telemetry::inc(ingest_busy, busy);
      telemetry::inc(ingest_idle, idle);
    };

    // --- Worker (bodies 1..W): parse its range, mark its shards, then
    // detect; then finish. ------------------------------------------------
    const auto run_worker = [&](unsigned w) {
      Lane& lane = *ws.lanes[w];
      std::uint64_t parse_busy = 0;
      std::uint64_t parse_idle = 0;
      if (!parse_pass(w + 1, parse_busy, parse_idle)) return;
      std::uint64_t busy = 0;
      const std::int64_t t_start = timed ? now_ns() : 0;
      {
        // Each shard's mark is written only by its owner, here, and read
        // only by its owner below: no handoff beyond the pre-pass barrier.
        const telemetry::ScopedSpan span(config.trace, "mark_shards");
        for (unsigned s = w; s < num_shards; s += num_workers) {
          ws.states[s]->mark.reset(shard_records);
        }
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint32_t s = ws.shard_ids[i];
          if (ws.shard_owner[s] == w && ws.store.ok(i)) {
            ws.states[s]->mark.add(ws.store.key_hash(i));
          }
        }
        if (timed) busy += static_cast<std::uint64_t>(now_ns() - t_start);
      }
      for (;;) {
        EpochBatch* b = nullptr;
        if (lane.work.try_pop(b)) {
          const telemetry::ScopedSpan span(config.trace, "detect_chunk");
          const std::int64_t t0 = timed ? now_ns() : 0;
          for (const std::uint32_t idx : b->indices) {
            ws.states[ws.shard_ids[idx]]->feed(ws.store, idx);
          }
          lane.free.try_push(b);  // never full: see Lane
          if (timed) busy += static_cast<std::uint64_t>(now_ns() - t0);
          continue;
        }
        if (abort.load(std::memory_order_acquire)) return;
        // `done` is set after the driver's final pushes, so done + an empty
        // (freshly re-checked) work ring means fully drained.
        if (done.load(std::memory_order_acquire) && lane.work.empty()) break;
        std::this_thread::yield();
      }
      for (unsigned s = w; s < num_shards; s += num_workers) {
        const telemetry::ScopedSpan span(config.trace, "detect_shard");
        const telemetry::ScopedTimer shard_timer(ws.detect_shard_hist[s]);
        const std::int64_t t0 = timed ? now_ns() : 0;
        ws.states[s]->finish();
        if (timed) busy += static_cast<std::uint64_t>(now_ns() - t0);
      }
      if (timed) {
        telemetry::inc(detect_busy, parse_busy + busy);
        telemetry::inc(detect_idle,
                       parse_idle +
                           static_cast<std::uint64_t>(now_ns() - t_start) -
                           busy);
      }
    };

    // The counter-runner parallel_for puts every body on its own pool
    // worker (n == pool size), so driver and workers genuinely overlap and
    // the pre-pass barrier cannot wait on a body that never starts. A body
    // that throws flips `abort` first: the barrier releases, the driver
    // stops feeding and every worker exits its spin, so the fan-out always
    // joins, and parallel_for rethrows the first error after the join.
    // Span name is null: the bodies emit their own finer-grained spans
    // (parse_chunk / mark_shards / detect_chunk / detect_shard) at depth 0
    // in their worker's lane.
    ws.pool->parallel_for(
        num_threads,
        [&](std::size_t t) {
          try {
            if (t == 0) {
              run_driver();
            } else {
              run_worker(static_cast<unsigned>(t) - 1);
            }
          } catch (...) {
            abort.store(true, std::memory_order_release);
            throw;
          }
        },
        nullptr);

    // --- Merge the per-shard outputs into the canonical stream order. -----
    detail::LocalCounts counts;
    std::size_t total_streams = 0;
    for (unsigned s = 0; s < num_shards; ++s) {
      counts.add(ws.states[s]->counts);
      total_streams += ws.states[s]->closed.size();
    }
    result.raw_streams.reserve(total_streams);
    for (unsigned s = 0; s < num_shards; ++s) {
      std::vector<ReplicaStream>& closed = ws.states[s]->closed;
      std::move(closed.begin(), closed.end(),
                std::back_inserter(result.raw_streams));
    }
    detail::sort_streams(result.raw_streams);

    detector.publish(counts);
  }

  result.total_records = n;
  count_parse_failures(reg, result);
  validate_and_merge(ws.store, config, result);
  return result;
}

std::uint64_t LoopDetectionResult::looped_packet_records() const {
  std::uint64_t total = 0;
  for (const auto& stream : valid_streams) {
    total += stream.size();
  }
  return total;
}

LoopDetectionResult detect_loops(const net::Trace& trace,
                                 const LoopDetectorConfig& config) {
  if (config.parallel.enabled()) {
    // A caller-provided workspace carries warm state across calls; without
    // one the workspace lives for this call.
    if (config.workspace != nullptr) {
      return detect_loops_pipelined(trace, config, *config.workspace);
    }
    PipelineWorkspace workspace;
    return detect_loops_pipelined(trace, config, workspace);
  }

  telemetry::Registry* reg = config.registry;
  LoopDetectionResult result;
  const telemetry::ScopedSpan root_span(config.trace, "detect_loops");
  {
    const telemetry::ScopedTimer timer(stage_histogram(reg, "parse"));
    const telemetry::ScopedSpan span(config.trace, "parse");
    result.records = parse_trace(trace);
    result.total_records = result.records.size();
    count_parse_failures(reg, result);
  }

  // Columnize: transpose the parsed records into the SoA RecordStore the
  // detect/validate/merge scans run on, and compute the replica-key hash
  // column (once per record, reused by every later stage).
  RecordStore store;
  {
    const telemetry::ScopedTimer timer(stage_histogram(reg, "columnize"));
    const telemetry::ScopedSpan span(config.trace, "columnize");
    store = RecordStore::build(trace, result.records);
  }

  {
    const telemetry::ScopedTimer timer(stage_histogram(reg, "detect"));
    const telemetry::ScopedSpan span(config.trace, "detect");
    const ReplicaDetector detector(config.detector, reg, config.journal);
    result.raw_streams = detector.detect(store);
  }
  validate_and_merge(store, config, result);
  return result;
}

}  // namespace rloop::core
