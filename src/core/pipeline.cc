#include "core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
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

// Steps 2 and 3 over result.raw_streams, once step 1 has filled `store`
// and the raw streams. Both are per-/24 range queries over the streams
// step 1 emitted, a small share of a run next to detection, so they run
// on the calling thread.
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

// Attaches a call's registry to the workspace pool and detaches it on
// every exit, exceptions included: the workspace outlives the call, and
// the next call's registry may be a different object at the same address.
class ScopedPoolTelemetry {
 public:
  ScopedPoolTelemetry(util::ThreadPool& pool, telemetry::Registry* registry)
      : pool_(pool) {
    pool_.set_telemetry(registry);
  }
  ~ScopedPoolTelemetry() { pool_.set_telemetry(nullptr); }
  ScopedPoolTelemetry(const ScopedPoolTelemetry&) = delete;
  ScopedPoolTelemetry& operator=(const ScopedPoolTelemetry&) = delete;

 private:
  util::ThreadPool& pool_;
};

// One stage's latency sample and span, opened and closed at run-time
// points rather than at scope edges: the caller ends the parse stage and
// starts the detect stage at the barrier, inside the fan-out, and ends the
// detect stage after the join.
class StageScope {
 public:
  void enter(telemetry::Histogram* histogram, telemetry::TraceSink* trace,
             const char* name) {
    exit();
    timer_.emplace(histogram);
    span_.emplace(trace, name);
  }
  void exit() {
    span_.reset();
    timer_.reset();
  }

 private:
  std::optional<telemetry::ScopedTimer> timer_;
  std::optional<telemetry::ScopedSpan> span_;
};

// The records body t parsed for body u, in trace order. Each bucket fills
// its own cache lines, so no two bodies write one line while parsing.
struct alignas(64) Bucket {
  std::vector<std::uint32_t> records;
};

}  // namespace

struct PipelineWorkspace::Impl {
  // No worker at one thread, num_threads workers above; rebuilt only when
  // the thread count changes. It holds no telemetry between calls (see
  // ScopedPoolTelemetry).
  std::unique_ptr<util::ThreadPool> pool;

  RecordStore store;
  std::vector<std::uint32_t> shard_owner;  // shard -> body (s % bodies)
  // buckets[t * bodies + u]: the parsed records of body t's slice whose
  // shard body u owns, in trace order.
  std::vector<Bucket> buckets;
  std::vector<std::unique_ptr<detail::FlatDetectState>> states;  // per shard
  std::vector<telemetry::Histogram*> detect_shard_hist;
};

PipelineWorkspace::PipelineWorkspace() : impl_(std::make_unique<Impl>()) {}
PipelineWorkspace::~PipelineWorkspace() = default;

std::uint64_t LoopDetectionResult::looped_packet_records() const {
  std::uint64_t total = 0;
  for (const auto& stream : valid_streams) {
    total += stream.size();
  }
  return total;
}

LoopDetectionResult detect_loops(const net::Trace& trace,
                                 const LoopDetectorConfig& config) {
  // A caller-provided workspace carries warm state across calls; without
  // one the workspace lives for this call.
  std::optional<PipelineWorkspace> transient;
  auto& ws = (config.workspace != nullptr ? *config.workspace
                                          : transient.emplace())
                 .impl();
  telemetry::Registry* reg = config.registry;
  const unsigned num_bodies = std::max(1u, config.parallel.num_threads);
  const unsigned num_shards = config.parallel.num_shards();
  const std::size_t n = trace.size();

  // One body runs on the caller and starts no thread; more run on workers
  // of their own while the caller sleeps (pipeline.h says why).
  const std::size_t num_workers = num_bodies == 1 ? 0 : num_bodies;
  if (!ws.pool || ws.pool->size() != num_workers) {
    ws.pool.reset();
    ws.pool = std::make_unique<util::ThreadPool>(num_workers);
  }
  const ScopedPoolTelemetry pool_telemetry(*ws.pool, reg);

  LoopDetectionResult result;
  const telemetry::ScopedSpan root_span(config.trace, "detect_loops");
  telemetry::Histogram* parse_hist = stage_histogram(reg, "parse");
  telemetry::Histogram* detect_hist = stage_histogram(reg, "detect");
  // The parse and detect stages, on the caller. Parse covers the workspace
  // prep, the fan-out and the wait at the barrier.
  StageScope stage;
  stage.enter(parse_hist, config.trace, "parse");

  // --- Workspace prep (all capacity-reusing once warm). -------------------
  ws.store.prepare(trace);
  const ReplicaDetector detector(config.detector, reg, config.journal);
  ws.states.resize(num_shards);
  for (auto& state : ws.states) {
    if (!state) state = std::make_unique<detail::FlatDetectState>();
    detector.bind(*state);
    state->reset();
  }
  ws.shard_owner.resize(num_shards);
  ws.buckets.resize(std::size_t{num_bodies} * num_bodies);
  ws.detect_shard_hist.resize(num_shards);
  for (unsigned s = 0; s < num_shards; ++s) {
    ws.shard_owner[s] = s % num_bodies;
    ws.detect_shard_hist[s] = telemetry::get_histogram(
        reg, "rloop_pipeline_shard_latency_ns", telemetry::latency_bounds_ns(),
        {{"stage", "detect"}, {"shard", std::to_string(s)}},
        "Wall-clock latency of one pipeline shard per call");
  }
  // Every shard's mark is sized for an even share of the trace: mix64
  // spreads key hashes evenly, and the size only moves the share of
  // one-offs a shared bucket lets through.
  const std::size_t shard_records = (n + num_shards - 1) / num_shards;
  // num_shards is a power of two (ParallelConfig), so the mask picks a
  // shard uniformly; one shard leaves nothing to pick, nor to hash.
  const auto shard_of = [&](std::size_t i) -> std::uint32_t {
    if (num_shards == 1) return 0;
    return static_cast<std::uint32_t>(mix64(ws.store.key_hash(i)) &
                                      (num_shards - 1));
  };

  // Stage-occupancy counters. Ingest busy is parsing, ingest idle the wait
  // at the barrier; detect busy is marking, feeding and finishing, which
  // never waits. Each body flushes its own totals once.
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

  // Bodies that reached the barrier. A body that throws flips `abort` and
  // counts itself in, so the barrier always opens; the bodies past it see
  // the flag and return.
  std::atomic<bool> abort{false};
  std::atomic<unsigned> parsed{0};
  std::atomic<std::uint64_t> parse_failures{0};
  const auto arrive = [&] {
    if (parsed.fetch_add(1, std::memory_order_acq_rel) + 1 == num_bodies) {
      parsed.notify_all();  // wakes the caller of a multi-body run
    }
  };

  // One body; all num_bodies of them run this. Returns early on abort. A
  // one-body run's body is the caller, so it starts the detect stage and
  // emits no per-body spans: they would only repeat the stage spans.
  const bool body_on_caller = num_workers == 0;
  telemetry::TraceSink* const body_trace =
      body_on_caller ? nullptr : config.trace;
  const auto run_body = [&](unsigned t) {
    // Fill one contiguous range of store rows, bucketing each parsed row
    // by the body that owns its shard, then wait for every other body. A
    // shard's RepeatMark needs every key hash of the trace before its first
    // record is fed, hence the barrier; contiguous rows mean no two bodies
    // write one cache line of the store except at a range edge. The
    // counter's release/acquire pairs publish every body's rows and buckets
    // to every other.
    const std::int64_t t0 = timed ? now_ns() : 0;
    {
      const telemetry::ScopedSpan span(body_trace, "parse_chunk");
      const std::size_t lo = n * t / num_bodies;
      const std::size_t hi = n * (t + 1) / num_bodies;
      // An even share of the slice per owner, with slack for skew; a
      // one-body run's single bucket takes the whole slice.
      const std::size_t share =
          std::min(hi - lo, (hi - lo) / num_bodies + (hi - lo) / 8);
      Bucket* const out = &ws.buckets[std::size_t{t} * num_bodies];
      for (unsigned u = 0; u < num_bodies; ++u) {
        out[u].records.clear();
        out[u].records.reserve(share);
      }
      std::uint64_t failures = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        if (!ws.store.fill_row(i)) {
          ++failures;  // parse failures never reach the detector
          continue;
        }
        out[ws.shard_owner[shard_of(i)]].records.push_back(
            static_cast<std::uint32_t>(i));
      }
      parse_failures.fetch_add(failures, std::memory_order_relaxed);
    }
    arrive();
    const std::int64_t t1 = timed ? now_ns() : 0;
    while (parsed.load(std::memory_order_acquire) < num_bodies) {
      std::this_thread::yield();
    }
    if (abort.load(std::memory_order_acquire)) return;
    if (body_on_caller) stage.enter(detect_hist, config.trace, "detect");
    const std::int64_t t2 = timed ? now_ns() : 0;
    telemetry::inc(ingest_busy, static_cast<std::uint64_t>(t1 - t0));
    telemetry::inc(ingest_idle, static_cast<std::uint64_t>(t2 - t1));
    if (t >= num_shards) return;  // owns no shard

    // Mark, then feed, the shards this body owns, walking the buckets every
    // body filled for it: bucket by bucket is slice by slice, so the walk
    // is in trace order. Each shard's state is written and read only by its
    // owner.
    const auto for_each_record = [&](auto&& fn) {
      for (unsigned src = 0; src < num_bodies; ++src) {
        for (const std::uint32_t i :
             ws.buckets[std::size_t{src} * num_bodies + t].records) {
          fn(*ws.states[shard_of(i)], i);
        }
      }
    };
    {
      const telemetry::ScopedSpan span(body_trace, "mark_shards");
      for (unsigned s = t; s < num_shards; s += num_bodies) {
        ws.states[s]->mark.reset(shard_records);
      }
      for_each_record([&](detail::FlatDetectState& state, std::uint32_t i) {
        state.mark.add(ws.store.key_hash(i));
      });
    }
    {
      const telemetry::ScopedSpan span(body_trace, "detect_chunk");
      for_each_record([&](detail::FlatDetectState& state, std::uint32_t i) {
        state.feed(ws.store, i);
      });
    }
    for (unsigned s = t; s < num_shards; s += num_bodies) {
      const telemetry::ScopedSpan span(body_trace, "detect_shard");
      const telemetry::ScopedTimer shard_timer(ws.detect_shard_hist[s]);
      ws.states[s]->finish();
    }
    const std::int64_t t3 = timed ? now_ns() : 0;
    telemetry::inc(detect_busy, static_cast<std::uint64_t>(t3 - t2));
  };

  // run() gives every pool index its own thread, index 0 the calling one,
  // so the barrier never waits on a body that cannot start. With workers,
  // index 0 is the caller's stage keeping and body t runs at index t + 1.
  // A body that throws releases the barrier (see `arrive`), so the fan-out
  // always joins and run() rethrows the error after the join.
  const unsigned first_body = body_on_caller ? 0 : 1;
  const auto run_index = [&](std::size_t i) {
    if (i < first_body) {
      for (unsigned seen = parsed.load(std::memory_order_acquire);
           seen < num_bodies; seen = parsed.load(std::memory_order_acquire)) {
        parsed.wait(seen, std::memory_order_acquire);
      }
      stage.enter(detect_hist, config.trace, "detect");
      return;
    }
    try {
      run_body(static_cast<unsigned>(i - first_body));
    } catch (...) {
      abort.store(true, std::memory_order_release);
      arrive();
      throw;
    }
  };
  // By reference: std::function keeps a reference_wrapper in its small
  // buffer, so the fan-out allocates nothing.
  ws.pool->run(std::ref(run_index));
  result.parse_failures = parse_failures.load(std::memory_order_relaxed);

  // --- Merge the per-shard outputs into the canonical stream order. -------
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
  stage.exit();

  result.total_records = n;
  telemetry::inc(telemetry::get_counter(
                     reg, "rloop_pipeline_parse_failures_total", {},
                     "Trace records whose IP header failed to parse"),
                 result.parse_failures);
  validate_and_merge(ws.store, config, result);
  return result;
}

}  // namespace rloop::core
