// Hot-path metric primitives: Counter, Gauge, Histogram, ScopedTimer.
//
// All primitives are thread-safe with relaxed atomics — an increment is one
// uncontended RMW, cheap enough for per-packet paths. None of them knows its
// own name; identity lives in the Registry (registry.h), which hands out
// stable pointers so instrumented code resolves a metric once and increments
// through the pointer forever.
//
// Disabled mode: instrumented code holds *pointers* that are null when no
// registry is attached, and updates them through the free helpers below
// (`inc`, `set`, `observe`), which reduce to a single predictable branch.
// ScopedTimer skips its clock reads entirely when the target histogram is
// null, so an un-instrumented run pays neither the atomics nor the
// clock_gettime calls.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

namespace rloop::telemetry {

// Monotonically increasing count of events.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// A value that goes up and down (table sizes, queue depths).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::int64_t n) { v_.fetch_sub(n, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Fixed-boundary histogram: bucket i counts observations <= bounds[i]
// (first matching bucket), the last bucket is the +Inf overflow. Boundaries
// are fixed at construction so observe() is lock-free: a small linear scan
// (bucket counts are ~10-20) plus two relaxed RMWs.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds)
      : bounds_(std::move(bounds)),
        buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
      buckets_[i].store(0, std::memory_order_relaxed);
    }
  }

  void observe(double v) {
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // fetch_add on atomic<double> is C++20 but not universally lowered well;
    // a CAS loop is portable and the sum is off the per-bucket fast path.
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
  }

  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Null-tolerant update helpers: the way instrumented code touches metrics.
inline void inc(Counter* c, std::uint64_t n = 1) {
  if (c) c->inc(n);
}
inline void set(Gauge* g, std::int64_t v) {
  if (g) g->set(v);
}
inline void observe(Histogram* h, double v) {
  if (h) h->observe(v);
}

// RAII timer recording elapsed wall-nanoseconds into a histogram. With a
// null histogram it never touches the clock.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h) : h_(h) {
    if (h_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (h_) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      h_->observe(static_cast<double>(ns));
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

// Geometric bucket boundaries: count values start, start*factor, ...
inline std::vector<double> exponential_bounds(double start, double factor,
                                              std::size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double v = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(v);
    v *= factor;
  }
  return bounds;
}

// Default boundaries for wall-clock latency histograms: 1 us .. ~16 s.
// Built once per process, so resolving a histogram against them without a
// registry allocates nothing.
inline const std::vector<double>& latency_bounds_ns() {
  static const std::vector<double> bounds = exponential_bounds(1e3, 4.0, 12);
  return bounds;
}

// Default boundaries for inter-packet / inter-replica spacing in ns:
// 10 us .. ~160 s (loop replica spacing is dominated by cycle RTT). Built
// once per process, like latency_bounds_ns().
inline const std::vector<double>& spacing_bounds_ns() {
  static const std::vector<double> bounds = exponential_bounds(1e4, 4.0, 12);
  return bounds;
}

}  // namespace rloop::telemetry
