// Daemon hot-path microbenchmarks.
//
//   BM_SpscRingPushPop      one push + one pop on an otherwise-empty ring:
//                           the per-record synchronization floor (ns/op)
//   BM_SpscRingTransfer     1M records shipped producer->consumer across
//                           real threads, batch drains (ns/record)
//   BM_DaemonEndToEnd/1     full daemon over the cached Backbone 3 trace,
//                           inline mode (no ring, one thread)
//   BM_DaemonEndToEnd/2     same, ring mode (producer + consumer thread)
//
// The 1-vs-2-thread pair bounds what the ring boundary costs (or hides):
// inline pays zero synchronization, ring overlaps source decode with
// detection at the price of one push+pop per record. bench_to_json measures
// the same two figures for the CI regression gate.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <thread>

#include "common.h"
#include "daemon/daemon.h"
#include "util/spsc_ring.h"

namespace {

using rloop::daemon::BackPressure;
using rloop::daemon::Daemon;
using rloop::daemon::DaemonConfig;
using rloop::daemon::ReplaySource;
using rloop::util::SpscRing;

void BM_SpscRingPushPop(benchmark::State& state) {
  SpscRing<rloop::net::TraceRecord> ring(1024);
  rloop::net::TraceRecord rec{};
  rec.cap_len = 28;
  rloop::net::TraceRecord out{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_push(rec));
    benchmark::DoNotOptimize(ring.try_pop(out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpscRingPushPop);

void BM_SpscRingTransfer(benchmark::State& state) {
  constexpr std::uint64_t kCount = 1'000'000;
  for (auto _ : state) {
    SpscRing<std::uint64_t> ring(4096);
    std::thread producer([&ring] {
      for (std::uint64_t i = 0; i < kCount; ++i) {
        while (!ring.try_push(i)) std::this_thread::yield();
      }
    });
    std::uint64_t out[256];
    std::uint64_t received = 0;
    std::uint64_t checksum = 0;
    while (received < kCount) {
      const std::size_t n = ring.pop_batch(out, 256);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      received += n;
      checksum += out[n - 1];
    }
    producer.join();
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kCount));
}
BENCHMARK(BM_SpscRingTransfer)->Unit(benchmark::kMillisecond);

void BM_DaemonEndToEnd(benchmark::State& state) {
  const bool use_ring = state.range(0) == 2;
  const auto& trace = rloop::bench::cached_trace(3);
  for (auto _ : state) {
    DaemonConfig config;
    config.use_ring = use_ring;
    config.back_pressure = BackPressure::block;
    Daemon d(config,
             std::make_unique<ReplaySource>(&trace, "bench", /*speed=*/0),
             nullptr);
    const auto stats = d.run();
    if (stats.consumed != trace.size() || !stats.invariant_ok()) {
      state.SkipWithError("daemon lost records");
      return;
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * trace.size()));
}
BENCHMARK(BM_DaemonEndToEnd)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
