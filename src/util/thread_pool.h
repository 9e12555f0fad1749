// A small fixed-size worker pool for the sharded detection pipeline.
//
// The pool is deliberately minimal: a mutex-protected FIFO of
// std::function tasks, N workers, and a blocking parallel_for. Shard fan-out
// in this repo is coarse (tens of tasks, each scanning thousands to millions
// of records), so queue contention is irrelevant and a lock-free deque would
// buy nothing. Determinism note: the pool never influences *what* the
// pipeline computes — sharded stages partition work by stable hashes and
// merge results with total-order sorts — it only influences *when* each
// shard runs.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace rloop::util {

class ThreadPool {
 public:
  // Spawns max(1, num_threads) workers. `registry` (optional) receives a
  // queue-depth gauge (rloop_threadpool_queue_depth) and a submitted-task
  // counter (rloop_threadpool_tasks_total). `trace` (optional) receives one
  // span per parallel_for task, named by the call site, recorded on the
  // worker thread that ran it — so a Perfetto view shows each shard in its
  // worker's lane.
  explicit ThreadPool(std::size_t num_threads,
                      telemetry::Registry* registry = nullptr,
                      telemetry::TraceSink* trace = nullptr);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Re-points the queue-depth gauge, task counter and span sink at new
  // sinks (null detaches). Call only while no fan-out is in flight. An
  // owner that keeps the pool across calls with different sinks (the
  // pipeline workspace) attaches the caller's sinks for one call and
  // detaches them after, so the pool never holds a pointer that outlives
  // the sink it points into.
  void set_telemetry(telemetry::Registry* registry,
                     telemetry::TraceSink* trace);

  // Enqueues a task; it runs on some worker, eventually. Tasks must not
  // throw (submit-side exceptions terminate); use parallel_for for
  // exception-propagating fan-out.
  void submit(std::function<void()> task);

  // Runs body(0) .. body(n-1) across the pool and blocks until all have
  // finished. The first exception thrown by any body is rethrown here after
  // the remaining indices drain (they still run; shard work is independent).
  // Internally the fan-out enqueues min(n, size()) runner tasks that claim
  // indices from a shared atomic counter — per-call queue traffic is
  // bounded by the worker count, not by n, so a million-index fan-out costs
  // the same synchronization as a sixteen-index one. `span_name` labels
  // each index's span when a trace sink is attached; it must be a string
  // literal (spans keep the pointer, not a copy). Pass nullptr to suppress
  // per-index spans — callers that emit their own finer-grained spans
  // inside the body (the staged dataflow) use that to keep those spans at
  // depth 0 in the worker's lane.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                    const char* span_name = "task");

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;

  telemetry::Gauge* m_queue_depth_ = nullptr;
  telemetry::Counter* m_tasks_ = nullptr;
  telemetry::TraceSink* trace_ = nullptr;
};

}  // namespace rloop::util
