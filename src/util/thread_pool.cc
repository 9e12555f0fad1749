#include "util/thread_pool.h"

namespace rloop::util {

ThreadPool::ThreadPool(std::size_t num_workers) {
  workers_.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::set_telemetry(telemetry::Registry* registry) {
  // Only run()'s caller touches the counter, so no lock is needed.
  m_tasks_ = telemetry::get_counter(
      registry, "rloop_threadpool_tasks_total", {},
      "Bodies run by the thread pool, the caller's included");
}

void ThreadPool::worker_loop(std::size_t w) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* body = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      body = body_;
    }
    std::exception_ptr error;
    try {
      (*body)(w + 1);
    } catch (...) {
      error = std::current_exception();
    }
    const std::lock_guard<std::mutex> lock(mu_);
    if (error && !error_) error_ = error;
    if (--pending_ == 0) done_cv_.notify_one();
  }
}

void ThreadPool::run(const std::function<void(std::size_t)>& body) {
  const std::size_t n = workers_.size() + 1;
  if (n > 1) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      body_ = &body;
      pending_ = n - 1;
      error_ = nullptr;
      ++generation_;
    }
    start_cv_.notify_all();
  }
  telemetry::inc(m_tasks_, n);

  std::exception_ptr error;
  try {
    body(0);
  } catch (...) {
    error = std::current_exception();
  }
  if (n > 1) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    if (!error) error = error_;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace rloop::util
