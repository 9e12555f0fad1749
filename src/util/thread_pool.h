// A small fixed set of worker threads for the detection pipeline's fan-out.
//
// The pipeline runs T bodies that meet at one barrier, so each body needs a
// thread of its own: a thread that ran two bodies would wait at the barrier
// for itself. run() gives that by construction — index 0 runs on the
// calling thread and index w + 1 on worker w — so a one-body run starts no
// thread, and a T-body run gives its bodies T workers while the caller
// waits at index 0 (core/pipeline.h says why). Determinism note: the pool
// never influences *what* the pipeline computes — bodies partition work by
// stable hashes and the caller merges their results with total-order
// sorts — it only influences *when* each body runs.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/registry.h"

namespace rloop::util {

class ThreadPool {
 public:
  // Spawns exactly `num_workers` threads (0 is valid: run() then runs its
  // one body on the caller alone).
  explicit ThreadPool(std::size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Points the body counter (rloop_threadpool_tasks_total) at `registry`
  // (null detaches). Call only while no run() is in flight. An owner that
  // keeps the pool across calls with different registries (the pipeline
  // workspace) attaches the caller's registry for one call and detaches it
  // after, so the pool never holds a pointer that outlives the registry.
  void set_telemetry(telemetry::Registry* registry);

  // Runs size() + 1 bodies: body(0) on the calling thread and body(w + 1)
  // on worker w, and blocks until every body has returned. No two bodies
  // share a thread, so bodies may wait for one another. The first
  // exception a body throws is rethrown here once all have returned.
  // Allocates nothing.
  void run(const std::function<void(std::size_t)>& body);

 private:
  void worker_loop(std::size_t w);

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  // The fan-out in flight, published under mu_ with a new generation.
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t pending_ = 0;  // worker bodies not yet returned
  std::exception_ptr error_;
  bool stop_ = false;
  std::vector<std::thread> workers_;

  telemetry::Counter* m_tasks_ = nullptr;
};

}  // namespace rloop::util
