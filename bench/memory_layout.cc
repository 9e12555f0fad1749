// Microbenchmarks (google-benchmark) for the hot-path memory overhaul:
// the flat-table/arena detector against the retained reference engine, the
// SoA RecordStore build, the flat NonLoopedIndex against the
// hash-map-of-vectors layout it replaced, and mmap vs streaming pcap ingest.
// The differential tests in tests/test_memory_layout.cc prove the outputs
// identical; these harnesses measure what the layout change buys.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "core/prefix_index.h"
#include "core/record.h"
#include "core/record_store.h"
#include "core/replica_detector.h"
#include "net/pcap.h"
#include "net/pcap_mmap.h"

using namespace rloop;

namespace {

const net::Trace& bench_trace() { return bench::cached_trace(3); }

const std::vector<core::ParsedRecord>& bench_records() {
  static const auto records = core::parse_trace(bench_trace());
  return records;
}

const core::RecordStore& bench_store() {
  static const auto store =
      core::RecordStore::build(bench_trace(), bench_records());
  return store;
}

// ---- Detection engine: reference (unordered_map of vectors) vs flat ----

void BM_DetectReference(benchmark::State& state) {
  const auto& trace = bench_trace();
  const auto& records = bench_records();
  const core::ReplicaDetector detector;
  for (auto _ : state) {
    auto streams = detector.detect_reference(trace, records);
    benchmark::DoNotOptimize(streams);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_DetectReference)->Unit(benchmark::kMillisecond);

void BM_DetectFlat(benchmark::State& state) {
  const auto& store = bench_store();
  const core::ReplicaDetector detector;
  for (auto _ : state) {
    auto streams = detector.detect(store);
    benchmark::DoNotOptimize(streams);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(store.size()));
}
BENCHMARK(BM_DetectFlat)->Unit(benchmark::kMillisecond);

// Store build included, so the comparison against BM_DetectReference (which
// starts from ParsedRecords, as the old pipeline did) is end-to-end fair.
void BM_DetectFlatWithStoreBuild(benchmark::State& state) {
  const auto& trace = bench_trace();
  const auto& records = bench_records();
  const core::ReplicaDetector detector;
  for (auto _ : state) {
    const auto store = core::RecordStore::build(trace, records);
    auto streams = detector.detect(store);
    benchmark::DoNotOptimize(streams);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_DetectFlatWithStoreBuild)->Unit(benchmark::kMillisecond);

// ---- RecordStore build (the columnize stage) ----

void BM_RecordStoreBuild(benchmark::State& state) {
  const auto& trace = bench_trace();
  const auto& records = bench_records();
  for (auto _ : state) {
    auto store = core::RecordStore::build(trace, records);
    benchmark::DoNotOptimize(store);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_RecordStoreBuild)->Unit(benchmark::kMillisecond);

// ---- NonLoopedIndex: flat sorted array vs the old hash-map layout ----

std::vector<bool> bench_membership() {
  const auto& records = bench_records();
  const core::ReplicaDetector detector;
  return core::stream_membership(records.size(),
                                 detector.detect(bench_store()));
}

void BM_IndexBuildFlat(benchmark::State& state) {
  const auto& records = bench_records();
  const auto member = bench_membership();
  for (auto _ : state) {
    core::NonLoopedIndex index(records, member);
    benchmark::DoNotOptimize(index.entry_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_IndexBuildFlat)->Unit(benchmark::kMillisecond);

// The layout NonLoopedIndex replaced, reconstructed for the comparison.
void BM_IndexBuildHashMap(benchmark::State& state) {
  const auto& records = bench_records();
  const auto member = bench_membership();
  for (auto _ : state) {
    std::unordered_map<net::Prefix, std::vector<net::TimeNs>> by_prefix;
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (!records[i].ok || member[i]) continue;
      by_prefix[records[i].dst24].push_back(records[i].ts);
    }
    benchmark::DoNotOptimize(by_prefix.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_IndexBuildHashMap)->Unit(benchmark::kMillisecond);

void BM_IndexQueryFlat(benchmark::State& state) {
  const auto& records = bench_records();
  const auto member = bench_membership();
  const core::NonLoopedIndex index(records, member);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& r = records[i];
    if (r.ok) {
      benchmark::DoNotOptimize(
          index.any_in(r.dst24, r.ts - net::kSecond, r.ts + net::kSecond));
    }
    i = (i + 997) % records.size();  // stride to defeat trivial caching
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IndexQueryFlat);

// ---- pcap ingest: streaming read vs mmap zero-copy ----

class PcapFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (path_.empty()) {
      path_ = (std::filesystem::temp_directory_path() /
               "rloop_bench_memory_layout.pcap")
                  .string();
      net::write_pcap(bench_trace(), path_);
    }
  }
  static std::string path_;
};
std::string PcapFixture::path_;

BENCHMARK_DEFINE_F(PcapFixture, ReadPcapStreaming)(benchmark::State& state) {
  for (auto _ : state) {
    auto trace = net::read_pcap(path_);
    benchmark::DoNotOptimize(trace.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bench_trace().size()));
}
BENCHMARK_REGISTER_F(PcapFixture, ReadPcapStreaming)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_DEFINE_F(PcapFixture, ReadPcapMmap)(benchmark::State& state) {
  for (auto _ : state) {
    auto trace = net::read_pcap_fast(path_);
    benchmark::DoNotOptimize(trace.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bench_trace().size()));
}
BENCHMARK_REGISTER_F(PcapFixture, ReadPcapMmap)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
