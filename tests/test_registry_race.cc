// Export-vs-register hammer: the /metrics HTTP thread snapshots the registry
// while the consumer thread is still registering late metrics (a label set
// first seen mid-run, e.g. rloop_failpoint_trips_total{name=...}). Run under
// TSan in CI's thread-sanitizer job; the assertions here also pin the
// semantics that make concurrent export safe — stable metric pointers, a
// monotonic generation counter, and snapshots that are each internally
// consistent.
#include "telemetry/registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/exporter.h"

namespace rloop::telemetry {
namespace {

TEST(RegistryRace, SnapshotWhileRegisteringAndUpdating) {
  Registry registry;
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  constexpr int kMetricsPerWriter = 200;

  // Writers: register fresh metrics (unique + shared identities) and hammer
  // updates through the returned pointers.
  std::vector<std::thread> writers;
  std::atomic<int> ready{0};
  // Writers start only once the exporter is inside its loop, so at least
  // one snapshot overlaps registration however the threads are scheduled.
  std::atomic<bool> exporting{false};
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      ready.fetch_add(1);
      while (!exporting.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kMetricsPerWriter; ++i) {
        Counter* unique = registry.counter(
            "rloop_race_unique_total",
            {{"writer", std::to_string(w)}, {"i", std::to_string(i)}},
            "per-writer metric");
        // Same identity from every writer: must be one metric.
        Counter* shared =
            registry.counter("rloop_race_shared_total", {}, "shared metric");
        Histogram* h = registry.histogram(
            "rloop_race_latency_ns", {1e3, 1e6},
            {{"writer", std::to_string(w)}}, "per-writer histogram");
        for (int j = 0; j < 16; ++j) {
          unique->inc();
          shared->inc();
          h->observe(5e3);
        }
      }
    });
  }

  // Exporter: snapshot + format continuously until the writers finish.
  std::uint64_t last_generation = 0;
  std::size_t last_size = 0;
  std::size_t exports = 0;
  std::thread exporter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      exporting.store(true, std::memory_order_release);
      const std::uint64_t gen_before = registry.generation();
      const auto snaps = registry.snapshot();
      // Formatting must not depend on quiescence.
      const std::string text = to_prometheus(snaps);
      EXPECT_FALSE(snaps.size() < last_size) << "metric set shrank";
      EXPECT_GE(registry.generation(), gen_before) << "generation regressed";
      EXPECT_GE(gen_before, last_generation);
      // Sorted output is part of the export contract, even mid-registration.
      for (std::size_t i = 1; i < snaps.size(); ++i) {
        EXPECT_FALSE(snaps[i].name < snaps[i - 1].name) << "unsorted snapshot";
      }
      last_generation = gen_before;
      last_size = snaps.size();
      ++exports;
    }
  });

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  exporter.join();
  EXPECT_GT(exports, 0u);

  // Final state: every registration landed exactly once.
  const auto snaps = registry.snapshot();
  std::size_t unique_count = 0;
  double shared_value = -1;
  std::size_t histograms = 0;
  for (const auto& snap : snaps) {
    if (snap.name == "rloop_race_unique_total") ++unique_count;
    if (snap.name == "rloop_race_shared_total") shared_value = snap.value;
    if (snap.name == "rloop_race_latency_ns") ++histograms;
  }
  EXPECT_EQ(unique_count,
            static_cast<std::size_t>(kWriters) * kMetricsPerWriter);
  EXPECT_EQ(shared_value, static_cast<double>(kWriters) * kMetricsPerWriter * 16);
  EXPECT_EQ(histograms, static_cast<std::size_t>(kWriters));
  EXPECT_EQ(registry.size(), snaps.size());

  // Generation counts new registrations only: re-registering an existing
  // identity must not bump it.
  const std::uint64_t gen = registry.generation();
  registry.counter("rloop_race_shared_total", {}, "shared metric");
  EXPECT_EQ(registry.generation(), gen);
  registry.counter("rloop_race_new_total", {}, "new metric");
  EXPECT_EQ(registry.generation(), gen + 1);
}

// Unchanged generation between two snapshots implies the identical metric
// *set* — the property an exporter needs to cache rendered name/label
// strings safely.
TEST(RegistryRace, GenerationPinsMetricSet) {
  Registry registry;
  registry.counter("rloop_gen_a_total", {}, "a")->inc();
  registry.gauge("rloop_gen_b", {}, "b")->set(2);
  const std::uint64_t gen = registry.generation();
  const auto before = registry.snapshot();

  // Value updates do not change the generation or the set.
  registry.counter("rloop_gen_a_total", {}, "a")->inc(41);
  EXPECT_EQ(registry.generation(), gen);
  const auto after = registry.snapshot();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].name, after[i].name);
    EXPECT_EQ(before[i].labels, after[i].labels);
  }
  EXPECT_EQ(after[0].value, 42.0);
}

}  // namespace
}  // namespace rloop::telemetry
