// Machine-readable pipeline benchmark for the CI regression gate.
//
// Runs the full detection pipeline (serial and 4-thread sharded) over the
// cached backbone trace, takes the best of N repetitions, and writes one
// JSON object with ns/packet, heap allocation counts, and peak RSS:
//
//   bench_to_json --out BENCH_pipeline.json
//
// With --baseline it additionally compares the measured ns/packet against a
// previously committed file and exits 1 when either the serial or the
// parallel figure regressed by more than --tolerance (default 0.15 = 15%).
// Allocation counts are deterministic and compared exactly (same tolerance
// applied, so incidental allocator/library churn does not flap the gate);
// RSS is informational only.
//
//   bench_to_json --baseline bench/BENCH_pipeline.baseline.json
//
// An absolute gate rides along when --baseline is given (a same-run
// comparison, so machine speed cancels out): the warm parallel4 run must
// allocate no more per packet than serial (the persistent
// PipelineWorkspace makes the staged dataflow's steady state
// allocation-free; tests/test_memory_layout.cc pins the same). The
// serial/parallel4 ratio is printed, not gated: it sits within this
// host class's run-to-run noise of any fixed threshold.
//
// The baseline lives in the repo (bench/BENCH_pipeline.baseline.json).
// Refresh it — on quiet hardware, best of several runs — whenever an
// intentional performance change shifts the numbers:
//
//   cmake --build build -j && build/bench/bench_to_json \
//       --repetitions 7 --out bench/BENCH_pipeline.baseline.json
#include <sys/resource.h>

#include <atomic>
#include <ctime>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "core/loop_detector.h"
#include "core/pipeline.h"
#include "daemon/daemon.h"
#include "daemon/observability.h"
#include "net/http_server.h"
#include "telemetry/registry.h"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

// The nothrow forms must be replaced too: libstdc++'s std::get_temporary_buffer
// (stable_sort's merge buffer) allocates with nothrow new but releases through
// plain operator delete — leaving these to the runtime while overriding the
// plain forms above is an alloc/dealloc mismatch under ASan.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using Clock = std::chrono::steady_clock;

struct Measurement {
  double ns_per_packet = 0;
  double allocs_per_packet = 0;
};

// CPU time consumed by the calling thread so far. The scrape gate compares
// consumer CPU cost rather than wall clock: on a small (even single-core)
// box the scraper thread preempts the consumer, and that scheduler tax
// would drown the claim the gate actually pins — the consumer never blocks
// on, or does work for, the HTTP plane.
double thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 +
         static_cast<double>(ts.tv_nsec);
}

// Best-of-N wall time and the allocation count of one run. Minimum, not
// mean: scheduling noise only ever adds time.
Measurement measure(const rloop::net::Trace& trace,
                    const rloop::core::LoopDetectorConfig& config,
                    int repetitions) {
  const auto n = static_cast<double>(trace.size());
  Measurement best;
  best.ns_per_packet = 1e300;
  for (int rep = 0; rep < repetitions; ++rep) {
    const auto allocs_before = g_alloc_count.load(std::memory_order_relaxed);
    const auto t0 = Clock::now();
    auto result = rloop::core::detect_loops(trace, config);
    const auto t1 = Clock::now();
    const auto allocs = g_alloc_count.load(std::memory_order_relaxed) -
                        allocs_before;
    if (result.total_records != trace.size()) {
      std::cerr << "bench_to_json: pipeline dropped records\n";
      std::exit(2);
    }
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        n;
    if (ns < best.ns_per_packet) best.ns_per_packet = ns;
    best.allocs_per_packet = static_cast<double>(allocs) / n;
  }
  return best;
}

// Best-of-N end-to-end daemon ns/packet over `trace`. `threads` is 1
// (inline: source drained on the calling thread) or 2 (ring mode: producer
// thread + detection thread over the lock-free SPSC ring, block policy so
// nothing drops and every packet is measured). A non-empty `checkpoint_dir`
// turns on crash-safe snapshots (the ops configuration) so the gate can pin
// their overhead. With `cpu_ns_per_packet` (inline mode only, where the
// calling thread IS the consumer) the best-of-N consumer CPU figure is
// reported too.
double measure_daemon(const rloop::net::Trace& trace, int threads,
                      int repetitions,
                      const std::string& checkpoint_dir = "",
                      double* cpu_ns_per_packet = nullptr) {
  double best = 1e300;
  double best_cpu = 1e300;
  for (int rep = 0; rep < repetitions; ++rep) {
    if (!checkpoint_dir.empty()) {
      // Fresh dir per repetition, or the next daemon would restore the
      // previous one's final snapshot and skip the whole trace.
      std::filesystem::remove_all(checkpoint_dir);
      std::filesystem::create_directories(checkpoint_dir);
    }
    rloop::daemon::DaemonConfig config;
    config.use_ring = threads == 2;
    config.back_pressure = rloop::daemon::BackPressure::block;
    config.checkpoint_dir = checkpoint_dir;
    config.checkpoint_interval = 30 * rloop::net::kSecond;  // trace time
    rloop::daemon::Daemon d(
        config,
        std::make_unique<rloop::daemon::ReplaySource>(&trace, "bench", 0),
        nullptr);
    const double c0 = thread_cpu_ns();
    const auto t0 = Clock::now();
    const auto stats = d.run();
    const auto t1 = Clock::now();
    const double c1 = thread_cpu_ns();
    if (stats.consumed != trace.size() || !stats.invariant_ok()) {
      std::cerr << "bench_to_json: daemon lost records\n";
      std::exit(2);
    }
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(trace.size());
    if (ns < best) best = ns;
    const double cpu = (c1 - c0) / static_cast<double>(trace.size());
    if (cpu < best_cpu) best_cpu = cpu;
  }
  if (cpu_ns_per_packet) *cpu_ns_per_packet = best_cpu;
  return best;
}

// Best-of-N inline-daemon ns/packet with the observability plane live and
// a scraper pulling /metrics + /status at 10 Hz for the whole run. The hub
// publishes with try_lock, so the gate below pins the whole claim: a
// concurrent scraper costs the hot path (almost) nothing.
double measure_daemon_http(const rloop::net::Trace& trace, int repetitions,
                           double* cpu_ns_per_packet = nullptr) {
  double best = 1e300;
  double best_cpu = 1e300;
  for (int rep = 0; rep < repetitions; ++rep) {
    rloop::daemon::DaemonConfig config;
    config.use_ring = false;
    config.back_pressure = rloop::daemon::BackPressure::block;
    rloop::telemetry::Registry registry;
    rloop::daemon::ObservabilityHub hub;
    rloop::daemon::ObservabilityServer server(&hub, &registry);
    std::string error;
    if (!server.start(&error)) {
      std::cerr << "bench_to_json: http server: " << error << "\n";
      std::exit(2);
    }
    rloop::daemon::Daemon d(
        config,
        std::make_unique<rloop::daemon::ReplaySource>(&trace, "bench", 0),
        nullptr, &registry);
    d.attach_observability(&hub);

    std::atomic<bool> stop{false};
    std::thread scraper([&] {
      while (!stop.load(std::memory_order_acquire)) {
        int status = 0;
        std::string body, err;
        rloop::net::http_get(server.port(), "/metrics", &status, &body, &err);
        rloop::net::http_get(server.port(), "/status", &status, &body, &err);
        for (int i = 0; i < 10 && !stop.load(std::memory_order_acquire); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }
    });

    const double c0 = thread_cpu_ns();
    const auto t0 = Clock::now();
    const auto stats = d.run();
    const auto t1 = Clock::now();
    const double c1 = thread_cpu_ns();
    stop.store(true, std::memory_order_release);
    scraper.join();
    server.stop();
    if (stats.consumed != trace.size() || !stats.invariant_ok()) {
      std::cerr << "bench_to_json: daemon lost records under scrape\n";
      std::exit(2);
    }
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(trace.size());
    if (ns < best) best = ns;
    const double cpu = (c1 - c0) / static_cast<double>(trace.size());
    if (cpu < best_cpu) best_cpu = cpu;
  }
  if (cpu_ns_per_packet) *cpu_ns_per_packet = best_cpu;
  return best;
}

long peak_rss_kb() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return usage.ru_maxrss;  // KiB on Linux
}

// Minimal extractor for the flat one-object JSON this tool itself writes:
// finds `"key": <number>`. Returns NaN when the key is absent.
double json_number(const std::string& text, const std::string& key) {
  const auto pos = text.find("\"" + key + "\"");
  if (pos == std::string::npos) return std::nan("");
  const auto colon = text.find(':', pos);
  if (colon == std::string::npos) return std::nan("");
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

bool check_regression(const std::string& name, double baseline, double now,
                      double tolerance) {
  if (std::isnan(baseline)) {
    // A freshly added metric has no committed figure yet; warn instead of
    // failing so the baseline can be refreshed in its own change.
    std::cout << "SKIP  " << name << ": " << now
              << " (field missing from baseline)\n";
    return true;
  }
  const double limit = baseline * (1.0 + tolerance);
  const bool ok = now <= limit;
  std::cout << (ok ? "OK  " : "FAIL") << "  " << name << ": " << now
            << " (baseline " << baseline << ", limit " << limit << ")\n";
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_pipeline.json";
  std::string baseline_path;
  double tolerance = 0.15;
  int repetitions = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "bench_to_json: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      out_path = next();
    } else if (arg == "--baseline") {
      baseline_path = next();
    } else if (arg == "--tolerance") {
      tolerance = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--repetitions") {
      repetitions = std::atoi(next().c_str());
    } else {
      std::cerr << "usage: bench_to_json [--out FILE] [--baseline FILE]"
                << " [--tolerance F] [--repetitions N]\n";
      return 2;
    }
  }

  const auto& trace = rloop::bench::cached_trace(3);

  rloop::core::LoopDetectorConfig serial_config;
  const auto serial = measure(trace, serial_config, repetitions);

  // The workspace persists across repetitions, so every rep after the first
  // measures the warm steady state: pool, SoA columns, batch rings, detect
  // states and validator/merger scratch all reused. allocs_per_packet keeps
  // the LAST rep's count, i.e. the warm figure the parity gate below pins.
  rloop::core::PipelineWorkspace workspace;
  rloop::core::LoopDetectorConfig parallel_config;
  parallel_config.parallel.num_threads = 4;
  parallel_config.parallel.shard_bits = 4;
  parallel_config.workspace = &workspace;
  const auto parallel = measure(trace, parallel_config, repetitions);

  double daemon1_cpu = 0.0;
  const double daemon1 = measure_daemon(trace, 1, repetitions, "", &daemon1_cpu);
  const double daemon2 = measure_daemon(trace, 2, repetitions);

  // The ops configuration: crash-safe snapshots every 10 s of trace time.
  const std::string ckpt_dir =
      (std::filesystem::temp_directory_path() / "rloop_bench_ckpt").string();
  const double daemon1_ckpt = measure_daemon(trace, 1, repetitions, ckpt_dir);
  std::filesystem::remove_all(ckpt_dir);

  // The observed configuration: a 10 Hz Prometheus scraper attached for the
  // whole run.
  double daemon1_http_cpu = 0.0;
  const double daemon1_http =
      measure_daemon_http(trace, repetitions, &daemon1_http_cpu);

  std::ostringstream json;
  json << "{\n"
       << "  \"trace_records\": " << trace.size() << ",\n"
       << "  \"repetitions\": " << repetitions << ",\n"
       << "  \"serial_ns_per_packet\": " << serial.ns_per_packet << ",\n"
       << "  \"serial_allocs_per_packet\": " << serial.allocs_per_packet
       << ",\n"
       << "  \"parallel4_ns_per_packet\": " << parallel.ns_per_packet << ",\n"
       << "  \"parallel4_allocs_per_packet\": " << parallel.allocs_per_packet
       << ",\n"
       << "  \"daemon1_ns_per_packet\": " << daemon1 << ",\n"
       << "  \"daemon2_ns_per_packet\": " << daemon2 << ",\n"
       << "  \"daemon1_ckpt_ns_per_packet\": " << daemon1_ckpt << ",\n"
       << "  \"daemon1_http_ns_per_packet\": " << daemon1_http << ",\n"
       << "  \"peak_rss_kb\": " << peak_rss_kb() << "\n"
       << "}\n";

  std::ofstream out(out_path);
  out << json.str();
  out.close();
  if (out.fail()) {
    std::cerr << "bench_to_json: cannot write " << out_path << "\n";
    return 2;
  }
  std::cout << json.str();

  if (baseline_path.empty()) return 0;

  std::ifstream in(baseline_path);
  if (!in) {
    std::cerr << "bench_to_json: cannot read baseline " << baseline_path
              << "\n";
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string baseline = buf.str();

  bool ok = true;
  ok &= check_regression("serial_ns_per_packet",
                         json_number(baseline, "serial_ns_per_packet"),
                         serial.ns_per_packet, tolerance);
  ok &= check_regression("parallel4_ns_per_packet",
                         json_number(baseline, "parallel4_ns_per_packet"),
                         parallel.ns_per_packet, tolerance);
  ok &= check_regression("serial_allocs_per_packet",
                         json_number(baseline, "serial_allocs_per_packet"),
                         serial.allocs_per_packet, tolerance);
  ok &= check_regression("parallel4_allocs_per_packet",
                         json_number(baseline, "parallel4_allocs_per_packet"),
                         parallel.allocs_per_packet, tolerance);
  ok &= check_regression("daemon1_ns_per_packet",
                         json_number(baseline, "daemon1_ns_per_packet"),
                         daemon1, tolerance);
  ok &= check_regression("daemon2_ns_per_packet",
                         json_number(baseline, "daemon2_ns_per_packet"),
                         daemon2, tolerance);
  ok &= check_regression("daemon1_http_ns_per_packet",
                         json_number(baseline, "daemon1_http_ns_per_packet"),
                         daemon1_http, tolerance);

  // Checkpointing overhead is pinned against the SAME run's plain daemon
  // figure, not the committed baseline. The bench replays 90 s of traffic
  // at max speed, which inflates snapshot cost relative to wall time by the
  // speed-up factor — so the production claim ("an always-on daemon at
  // capture rate spends <2% of its time on snapshots") is checked by
  // amortizing the measured extra nanoseconds over the trace's own
  // duration, with 0.5 ms absolute grace per run for timer jitter.
  {
    const auto duration_ns = static_cast<double>(
        trace[trace.size() - 1].ts - trace[0].ts);
    const double extra_ns =
        (daemon1_ckpt - daemon1) * static_cast<double>(trace.size());
    const double fraction = (extra_ns - 500'000.0) / duration_ns;
    const bool ckpt_ok = fraction <= 0.02;
    std::cout << (ckpt_ok ? "OK  " : "FAIL")
              << "  checkpoint_overhead_fraction: " << fraction
              << " (extra " << extra_ns / 1e6 << " ms over "
              << duration_ns / 1e9 << " s of trace, limit 0.02)\n";
    ok &= ckpt_ok;
  }

  // The never-block claim, measured: a 10 Hz scraper may cost the consumer
  // at most 3% over the same run's plain daemon figure. Same-run
  // comparison (not the committed baseline) so machine speed cancels out,
  // and consumer-thread CPU time (not wall clock) so scheduler preemption
  // by the scraper thread on a small box does not count as "blocking";
  // 1 ms absolute grace over the whole trace for timer jitter.
  {
    const double extra_ns = (daemon1_http_cpu - daemon1_cpu) *
                            static_cast<double>(trace.size());
    const double limit_ns =
        0.03 * daemon1_cpu * static_cast<double>(trace.size()) + 1'000'000.0;
    const bool http_ok = extra_ns <= limit_ns;
    std::cout << (http_ok ? "OK  " : "FAIL")
              << "  http_scrape_overhead: " << extra_ns / 1e6
              << " ms extra consumer CPU (" << daemon1_http_cpu << " vs "
              << daemon1_cpu << " ns/pkt; limit " << limit_ns / 1e6
              << " ms = 3% of daemon1 CPU + 1 ms grace)\n";
    ok &= http_ok;
  }

  std::cout << "INFO  parallel4_speedup: "
            << serial.ns_per_packet / parallel.ns_per_packet << "x (serial "
            << serial.ns_per_packet << " / parallel4 "
            << parallel.ns_per_packet << " ns/packet, not gated)\n";

  // Steady-state allocation parity: the warm workspace run (last rep) must
  // allocate no more per packet than serial. Absolute, not baseline-relative
  // — allocation counts are deterministic.
  {
    const bool lean = parallel.allocs_per_packet <= serial.allocs_per_packet;
    std::cout << (lean ? "OK  " : "FAIL")
              << "  parallel4_allocs_vs_serial: " << parallel.allocs_per_packet
              << " (serial " << serial.allocs_per_packet
              << ", warm parallel must not exceed it)\n";
    ok &= lean;
  }
  return ok ? 0 : 1;
}
