#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace rloop::util {

ThreadPool::ThreadPool(std::size_t num_threads, telemetry::Registry* registry,
                       telemetry::TraceSink* trace) {
  set_telemetry(registry, trace);
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::set_telemetry(telemetry::Registry* registry,
                               telemetry::TraceSink* trace) {
  telemetry::Gauge* depth = telemetry::get_gauge(
      registry, "rloop_threadpool_queue_depth", {},
      "Tasks waiting in the thread-pool queue");
  telemetry::Counter* tasks = telemetry::get_counter(
      registry, "rloop_threadpool_tasks_total", {},
      "Tasks submitted to the thread pool");
  // Under the queue mutex: workers read these after popping a task, so the
  // next fan-out's workers see the new pointers.
  const std::lock_guard<std::mutex> lock(mu_);
  m_queue_depth_ = depth;
  m_tasks_ = tasks;
  trace_ = trace;
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    telemetry::set(m_queue_depth_, static_cast<std::int64_t>(queue_.size()));
  }
  telemetry::inc(m_tasks_);
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ && drained
      task = std::move(queue_.front());
      queue_.pop_front();
      telemetry::set(m_queue_depth_, static_cast<std::int64_t>(queue_.size()));
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body,
                              const char* span_name) {
  if (n == 0) return;
  if (n == 1) {  // no fan-out, no synchronization
    if (span_name != nullptr) {
      const telemetry::ScopedSpan span(trace_, span_name, "task");
      body(0);
    } else {
      body(0);
    }
    telemetry::inc(m_tasks_);
    return;
  }

  // One queue entry per runner, not per index: runners claim indices from
  // the shared atomic until none are left. The tasks counter still counts
  // logical bodies (n), matching the old one-task-per-index accounting. The
  // runner closure captures a single Join pointer so the std::function fits
  // its small-buffer optimization — a fan-out enqueues zero heap blocks.
  struct Join {
    ThreadPool* pool;
    const std::function<void(std::size_t)>* body;
    const char* span_name;
    std::size_t n;
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    std::size_t remaining;
    std::exception_ptr error;

    void run() {
      std::exception_ptr local_error;
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        try {
          if (span_name != nullptr) {
            const telemetry::ScopedSpan span(pool->trace_, span_name, "task");
            (*body)(i);
          } else {
            (*body)(i);
          }
        } catch (...) {
          // Record the first failure but keep draining: shard work is
          // independent and the contract is that every index runs.
          if (!local_error) local_error = std::current_exception();
        }
      }
      {
        const std::lock_guard<std::mutex> lock(mu);
        if (local_error && !error) error = local_error;
        --remaining;
        // Notify while holding the mutex: the waiter owns Join on its stack
        // and destroys it the moment wait() returns, so signalling after
        // unlock would touch a dead condition variable.
        cv.notify_one();
      }
    }
  } join;
  const std::size_t runners = std::min(n, workers_.size());
  join.pool = this;
  join.body = &body;
  join.span_name = span_name;
  join.n = n;
  join.remaining = runners;
  join.error = nullptr;

  Join* jp = &join;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t r = 0; r < runners; ++r) {
      queue_.push_back([jp] { jp->run(); });
    }
    telemetry::set(m_queue_depth_, static_cast<std::int64_t>(queue_.size()));
  }
  telemetry::inc(m_tasks_, n);
  cv_.notify_all();

  std::unique_lock<std::mutex> lock(join.mu);
  join.cv.wait(lock, [&join] { return join.remaining == 0; });
  if (join.error) std::rethrow_exception(join.error);
}

}  // namespace rloop::util
