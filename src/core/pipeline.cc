#include "core/pipeline.h"

#include <algorithm>
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
#include "core/stream_merger.h"
#include "core/stream_validator.h"
#include "telemetry/counter.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"
#include "util/thread_pool.h"

namespace rloop::core {

namespace {

telemetry::Histogram* stage_histogram(telemetry::Registry* registry,
                                      const char* stage) {
  return telemetry::get_histogram(
      registry, "rloop_pipeline_stage_latency_ns",
      telemetry::latency_bounds_ns(), {{"stage", stage}},
      "Wall-clock latency of one detection-pipeline stage per call");
}

// Adds a run's parse failures, counted while the store was filled, to the
// registry's parse-failure counter.
void publish_parse_failures(telemetry::Registry* registry,
                            std::uint64_t failures) {
  telemetry::inc(telemetry::get_counter(
                     registry, "rloop_pipeline_parse_failures_total", {},
                     "Trace records whose IP header failed to parse"),
                 failures);
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
  std::vector<std::uint32_t> shard_ids;    // mix64(key hash) & (shards - 1)
  std::vector<std::uint32_t> shard_owner;  // shard -> body (s % bodies)
  // Per body: the parsed records of the shards it owns, in trace order.
  std::vector<std::vector<std::uint32_t>> owned;
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
  const unsigned num_bodies = std::max(1u, config.parallel.num_threads);
  const unsigned num_shards = config.parallel.num_shards();
  const std::size_t n = trace.size();

  if (!ws.pool || ws.pool->size() != num_bodies) {
    ws.pool.reset();
    ws.pool = std::make_unique<util::ThreadPool>(num_bodies);
  }
  const ScopedPoolTelemetry pool_telemetry(*ws.pool, reg, config.trace);

  LoopDetectionResult result;
  const telemetry::ScopedSpan root_span(config.trace, "detect_loops");

  {
    const telemetry::ScopedTimer timer(stage_histogram(reg, "detect"));
    const telemetry::ScopedSpan span(config.trace, "detect");

    // --- Workspace prep (all capacity-reusing once warm). -----------------
    ws.store.prepare(trace);
    ws.shard_ids.resize(n);

    const ReplicaDetector detector(config.detector, reg, config.journal);
    ws.states.resize(num_shards);
    for (auto& state : ws.states) {
      if (!state) state = std::make_unique<detail::FlatDetectState>();
      detector.bind(*state);
      state->reset();
    }
    ws.shard_owner.resize(num_shards);
    ws.owned.resize(num_bodies);
    ws.detect_shard_hist.resize(num_shards);
    for (unsigned s = 0; s < num_shards; ++s) {
      ws.shard_owner[s] = s % num_bodies;
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

    // Stage-occupancy counters. Ingest busy is parsing, ingest idle the
    // wait at the barrier; detect busy is marking, feeding and finishing,
    // which never waits. Each body flushes its own totals once.
    telemetry::Counter* ingest_busy = telemetry::get_counter(
        reg, "rloop_pipeline_stage_busy_ns_total", {{"stage", "ingest"}},
        "Nanoseconds a pipeline stage spent doing work");
    telemetry::Counter* ingest_idle = telemetry::get_counter(
        reg, "rloop_pipeline_stage_idle_ns_total", {{"stage", "ingest"}},
        "Nanoseconds a pipeline stage spent waiting at its barrier");
    telemetry::Counter* detect_busy = telemetry::get_counter(
        reg, "rloop_pipeline_stage_busy_ns_total", {{"stage", "detect"}},
        "Nanoseconds a pipeline stage spent doing work");
    const bool timed = ingest_busy != nullptr;

    std::atomic<bool> abort{false};
    std::atomic<unsigned> parsed{0};
    std::atomic<std::uint64_t> parse_failures{0};

    // One body; all num_bodies of them run this. Returns early on abort.
    const auto run_body = [&](unsigned t) {
      // Fill one contiguous range of store rows, then wait for every other
      // body. A shard's RepeatMark needs every key hash of the trace before
      // its first record is fed, hence the barrier; contiguous rows mean no
      // two bodies write one cache line of the store except at a range
      // edge. The counter's release/acquire pairs publish every body's rows
      // and shard ids to every other.
      const std::int64_t t0 = timed ? now_ns() : 0;
      {
        const telemetry::ScopedSpan span(config.trace, "parse_chunk");
        const std::size_t lo = n * t / num_bodies;
        const std::size_t hi = n * (t + 1) / num_bodies;
        std::uint64_t failures = 0;
        // num_shards is 1 << shard_bits (ParallelConfig), so the mask
        // picks a shard uniformly.
        for (std::size_t i = lo; i < hi; ++i) {
          if (!ws.store.fill_row(i)) ++failures;
          ws.shard_ids[i] = static_cast<std::uint32_t>(
              mix64(ws.store.key_hash(i)) & (num_shards - 1));
        }
        parse_failures.fetch_add(failures, std::memory_order_relaxed);
      }
      parsed.fetch_add(1, std::memory_order_acq_rel);
      const std::int64_t t1 = timed ? now_ns() : 0;
      while (parsed.load(std::memory_order_acquire) < num_bodies) {
        if (abort.load(std::memory_order_acquire)) return;
        std::this_thread::yield();
      }
      const std::int64_t t2 = timed ? now_ns() : 0;
      telemetry::inc(ingest_busy, static_cast<std::uint64_t>(t1 - t0));
      telemetry::inc(ingest_idle, static_cast<std::uint64_t>(t2 - t1));
      if (t >= num_shards) return;  // owns no shard

      // Mark, then feed, the shards this body owns. Each shard's state is
      // written and read only by its owner, and its records arrive in
      // trace order. Parse failures never reach the detector. The mark
      // scan also lists the body's records, so the feed pass walks only
      // those: feeding inside a second full scan measured slower
      // (DESIGN.md §5.2), most likely because the ownership branch
      // mispredicts and stalls the cache misses feed() could overlap.
      // The list is moved out for the body's lifetime: the vectors' headers
      // sit side by side in ws.owned, and push_back on a shared cache line
      // would ping-pong it between bodies.
      std::vector<std::uint32_t> owned = std::move(ws.owned[t]);
      {
        const telemetry::ScopedSpan span(config.trace, "mark_shards");
        for (unsigned s = t; s < num_shards; s += num_bodies) {
          ws.states[s]->mark.reset(shard_records);
        }
        owned.clear();
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint32_t s = ws.shard_ids[i];
          if (ws.shard_owner[s] == t && ws.store.ok(i)) {
            ws.states[s]->mark.add(ws.store.key_hash(i));
            owned.push_back(static_cast<std::uint32_t>(i));
          }
        }
      }
      {
        const telemetry::ScopedSpan span(config.trace, "detect_chunk");
        for (const std::uint32_t i : owned) {
          ws.states[ws.shard_ids[i]]->feed(ws.store, i);
        }
      }
      ws.owned[t] = std::move(owned);
      for (unsigned s = t; s < num_shards; s += num_bodies) {
        const telemetry::ScopedSpan span(config.trace, "detect_shard");
        const telemetry::ScopedTimer shard_timer(ws.detect_shard_hist[s]);
        ws.states[s]->finish();
      }
      const std::int64_t t3 = timed ? now_ns() : 0;
      telemetry::inc(detect_busy, static_cast<std::uint64_t>(t3 - t2));
    };

    // The counter-runner parallel_for puts every body on its own pool
    // worker (n == pool size), so the barrier cannot wait on a body that
    // never starts. A body that throws flips `abort` first, which releases
    // the barrier, so the fan-out always joins and parallel_for rethrows
    // the first error after the join. Span name is null: the bodies emit
    // their own finer-grained spans (parse_chunk / mark_shards /
    // detect_chunk / detect_shard) at depth 0 in their worker's lane.
    ws.pool->parallel_for(
        num_bodies,
        [&](std::size_t t) {
          try {
            run_body(static_cast<unsigned>(t));
          } catch (...) {
            abort.store(true, std::memory_order_release);
            throw;
          }
        },
        nullptr);
    result.parse_failures = parse_failures.load(std::memory_order_relaxed);

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
  publish_parse_failures(reg, result.parse_failures);
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
  RecordStore store;
  {
    const telemetry::ScopedTimer timer(stage_histogram(reg, "parse"));
    const telemetry::ScopedSpan span(config.trace, "parse");
    store = RecordStore::build(trace, &result.parse_failures);
    result.total_records = trace.size();
    publish_parse_failures(reg, result.parse_failures);
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
