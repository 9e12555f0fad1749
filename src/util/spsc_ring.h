// Lock-free single-producer / single-consumer bounded ring.
//
// Two producer/consumer boundaries in this repo use it: the daemon's ingest
// edge (capture/replay thread pushes fixed-size records, detection thread
// drains them in batches — daemon/daemon.h) and the observability plane's
// per-client SSE queues (the publisher pushes alert lines, each client's
// connection thread pops them — daemon/observability.h). One producer and one
// consumer mean the queue needs no CAS loops — each side owns one index and
// only *reads* the other's, so a push is a store-release and a pop is a
// load-acquire, nothing heavier. Both indices (and each side's cached copy
// of the other) live on their own cache line so the two threads never
// false-share, and capacity is a power of two so wrapping is a mask, not a
// division.
//
// The ring itself never blocks and never drops: try_push tells the caller
// the truth and the caller implements the back-pressure policy (drop-newest
// or block) with its own accounting — see daemon.h, which maintains the
// pushed == consumed + dropped invariant on top of this primitive.
//
// Indices are free-running 64-bit counters (they never wrap in practice:
// 2^64 packets at 10^9 pps is ~585 years), so empty is head == tail and the
// ring holds tail - head records with no wasted slot.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <vector>

namespace rloop::util {

// A fixed 64 rather than std::hardware_destructive_interference_size: the
// stdlib value is flagged ABI-unstable (-Winterference-size) and 64 is the
// destructive-sharing granule on every platform this targets (x86_64
// prefetches line pairs, but padding both hot indices to 128 bytes buys
// nothing measurable here).
inline constexpr std::size_t kCacheLine = 64;

template <typename T>
class SpscRing {
 public:
  // `capacity` must be a nonzero power of two; throws otherwise.
  explicit SpscRing(std::size_t capacity)
      : slots_(capacity), mask_(capacity - 1) {
    if (capacity == 0 || (capacity & mask_) != 0) {
      throw std::invalid_argument(
          "SpscRing: capacity must be a nonzero power of two");
    }
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return slots_.size(); }

  // Producer side. Returns false when the ring is full (caller decides
  // whether that is a drop or a reason to spin).
  bool try_push(const T& value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ >= slots_.size()) {
      // Looks full; refresh the consumer's progress before giving up.
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ >= slots_.size()) return false;
    }
    slots_[tail & mask_] = value;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Consumer side: moves up to `max` records into `out`, returns how many.
  std::size_t pop_batch(T* out, std::size_t max) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (cached_tail_ == head) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (cached_tail_ == head) return 0;
    }
    std::size_t n = static_cast<std::size_t>(cached_tail_ - head);
    if (n > max) n = max;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = slots_[(head + i) & mask_];
    }
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  bool try_pop(T& out) { return pop_batch(&out, 1) == 1; }

  // Racy by nature (each thread's index moves concurrently); exact only when
  // the other side is quiescent. Good enough for gauges and tests.
  std::size_t size_approx() const {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }
  bool empty() const { return size_approx() == 0; }

 private:
  std::vector<T> slots_;
  std::size_t mask_;
  // Consumer-owned index, and the producer's cached copy of it.
  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};
  alignas(kCacheLine) std::uint64_t cached_head_ = 0;
  // Producer-owned index, and the consumer's cached copy of it.
  alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};
  alignas(kCacheLine) std::uint64_t cached_tail_ = 0;
};

}  // namespace rloop::util
