// rloopbench: the repository's end-to-end and per-layer benchmark.
//
//   rloopbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--workdir <dir>] [--corrupt-reference]
//
// Workloads (METRICS.md says why each exists and which metrics it moves):
//   backbone_busy   backbone_spec(2) with the given seed: ~1.6 M records,
//                   under 1% looped — nearly every record is a one-off.
//   loop_storm      a backbone-3 scenario with an IGP/BGP flap phase and a
//                   never-cleared misconfiguration loop: a quarter to a
//                   third of ~230 k records are looped.
//   storm_observed  loop_storm's input with every hook on: registry and
//                   decision journal offline; registry, journal,
//                   checkpoints and the HTTP plane with a 10 Hz scraper on
//                   the daemon.
//
// --trace 0 times the end-to-end paths with no tracing and prints the
// end-to-end metrics; --trace 1 runs the traced per-layer breakdown (spans
// from this file around each public layer call, exported as a Chrome trace
// to <workdir>/<workload>-<seed>.spans.json), the open-loop alert-latency
// passes, and prints the per-layer metrics. Each metric is the median over
// the passes of one run; the report above the final line gives quartiles
// and pass counts. The final stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
// Exit status is 0 when the run completed (correct or not), 2 on bad
// arguments or an error.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/loop_detector.h"
#include "core/pipeline.h"
#include "core/record.h"
#include "core/record_store.h"
#include "core/replica_detector.h"
#include "core/stream_merger.h"
#include "core/stream_validator.h"
#include "core/streaming_detector.h"
#include "daemon/daemon.h"
#include "daemon/observability.h"
#include "net/http_server.h"
#include "net/pcap.h"
#include "net/pcap_mmap.h"
#include "oracle.h"
#include "paced_source.h"
#include "scenarios/backbone.h"
#include "scenarios/scenario.h"
#include "stats.h"
#include "telemetry/decision_log.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace {

namespace core = rloop::core;
namespace daemon = rloop::daemon;
namespace net = rloop::net;
namespace scenarios = rloop::scenarios;
namespace telemetry = rloop::telemetry;
namespace fs = std::filesystem;
using rloopbench::Expected;
using rloopbench::now_ns;
using rloopbench::OfflineOutput;
using rloopbench::PacedSource;

// Open-loop offer rate of the alert-latency pass (traced run), about a
// fifth of the daemon's closed-loop capacity. The streaming detector sweeps
// its open table every 32 Ki packets, stalling the consumer for 5-10 ms on
// these traces (4-vCPU Xeon VM); at 1 Mpps the backlog behind each sweep
// covered 30-100% of the alerts, so the median flipped between ~1 us and
// ~10 ms from pass to pass. At 0.5 Mpps it covers ~10%; the sweeps show in
// the p90.
constexpr double kPacedRatePps = 5e5;
// No pass runs more than 4 busy threads (the target hosts have 4).
constexpr unsigned kParallelThreads = 4;
constexpr unsigned kShardBits = 4;
// storm_observed's snapshot cadence, in trace time. The passes replay the
// trace ~250x (paced) to ~800x (full speed) faster than it was captured, so
// a 1 s cadence would write a ~3 MB fsync'd snapshot every few wall
// milliseconds; measured on a 4-vCPU Xeon VM, it cut daemon_max_mpps to
// 0.19 and made the paced pass drop half its packets. 40 s gives exactly
// one mid-run snapshot plus the one at drain on every loop_storm pass (its
// traces span 60-65 s), so the count does not depend on the seed.
constexpr rloop::net::TimeNs kCheckpointInterval = 40 * rloop::net::kSecond;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
constexpr int kMinRoundsUntraced = 3;
constexpr int kMinRoundsTraced = 2;

const char* const kUsage =
    "usage: rloopbench --workload <backbone_busy|loop_storm|storm_observed>\n"
    "                  --seed <n> --seconds <s> --trace <0|1>\n"
    "                  [--workdir <dir>] [--corrupt-reference]\n";

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
  bool corrupt_reference = false;
};

[[noreturn]] void usage_error(const std::string& why) {
  std::cerr << "rloopbench: " << why << "\n" << kUsage;
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage_error("--trace takes 0 or 1");
        o.trace = v == "1";
        have_trace = true;
      } else if (arg == "--workdir") {
        o.workdir = value();
      } else if (arg == "--corrupt-reference") {
        o.corrupt_reference = true;
      } else {
        usage_error("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + arg);
    }
  }
  if (o.workload != "backbone_busy" && o.workload != "loop_storm" &&
      o.workload != "storm_observed") {
    usage_error("unknown or missing --workload");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage_error("--seed, --seconds and --trace are required");
  }
  if (o.seconds <= 0 || o.seconds > 60) {
    usage_error("--seconds must be in (0, 60]");
  }
  return o;
}

// --- inputs ------------------------------------------------------------------

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e9;
}

// The loop_storm scenario: quiet long-haul backbone 3 driven at 200 flows/s
// through one 60 s flap phase, plus a misconfiguration loop from 1 s that
// is never cleared, so replica matching, stream emission, validate/merge
// and the alert path all do real work on a cache-resident working set.
scenarios::ScenarioSpec loop_storm_spec(std::uint64_t seed) {
  scenarios::ScenarioSpec s;
  s.name = "loop_storm";
  s.seed = seed;
  s.backbone = 3;
  s.flows_per_second = 200.0;
  s.phases = {{.kind = scenarios::PhaseKind::flap,
               .duration = 60 * net::kSecond,
               .flap_events = 12,
               .flap_outage_mean = 2500 * net::kMillisecond,
               .withdraw_events = 6,
               .withdraw_outage_mean = 20 * net::kSecond}};
  s.misconfig = true;
  s.misconfig_at = net::kSecond;
  s.misconfig_clear = -1;
  return s;
}

// Simulates the workload's input from `seed` and writes it as a pcap.
void generate_pcap(const std::string& input, std::uint64_t seed,
                   const std::string& path) {
  if (input == "backbone_busy") {
    auto spec = scenarios::backbone_spec(2);
    spec.seed = seed;
    const auto run = scenarios::build_backbone(spec);
    scenarios::execute(*run);
    net::write_pcap(run->trace(), path);
  } else {
    const auto run = scenarios::run_scenario(loop_storm_spec(seed));
    net::write_pcap(run->analysis_trace(), path);
  }
}

core::StreamingConfig streaming_config() {
  auto cfg = daemon::DaemonConfig::daemon_streaming_defaults();
  cfg.alert_holddown = net::kSecond;  // one alert per loop, as in scenarios
  return cfg;
}

// Runs `body` in a forked child and returns what it produced. Memory the
// child touches never counts in this process's ru_maxrss. Call with no
// other threads running.
std::string run_in_child(const std::function<std::string()>& body) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    int status = 1;
    try {
      const std::string text = body();
      std::size_t off = 0;
      while (off < text.size()) {
        const ssize_t n = ::write(fds[1], text.data() + off, text.size() - off);
        if (n <= 0) break;
        off += static_cast<std::size_t>(n);
      }
      if (off == text.size()) status = 0;
    } catch (const std::exception& e) {
      std::cerr << "rloopbench: child: " << e.what() << "\n";
    }
    ::close(fds[1]);
    ::_exit(status);
  }
  ::close(fds[1]);
  std::string text;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("child process failed");
  }
  return text;
}

struct Generated {
  Expected expected;
  double generate_s = 0;
};

// Simulates the input into `pcap` and computes the reference output from
// it, in a child: neither the simulator's nor the reference engine's
// memory counts in peak_rss_mb, which covers the paths under test only.
Generated generate_in_child(const std::string& input, std::uint64_t seed,
                            const std::string& pcap) {
  const std::string text = run_in_child([&] {
    const std::int64_t t0 = now_ns();
    generate_pcap(input, seed, pcap);
    const std::int64_t t1 = now_ns();
    const net::Trace trace = net::read_pcap_fast(pcap);
    return std::to_string(seconds_between(t0, t1)) + "\n" +
           rloopbench::serialize(rloopbench::compute_expected(
               trace, streaming_config(), input, seed));
  });
  Generated g;
  const std::size_t eol = text.find('\n');
  g.generate_s = std::stod(text.substr(0, eol));
  g.expected = rloopbench::deserialize(text.substr(eol + 1));
  return g;
}

// The storm_observed hooks. Null for the other workloads.
struct Hooks {
  telemetry::Registry registry;
  telemetry::DecisionLog offline_journal;
  telemetry::DecisionLog daemon_journal;
};

// Everything the timed passes need, rebuilt from the seed by each setup.
struct Prepared {
  std::string pcap;
  net::Trace trace;  // the pcap read back: what the daemon passes replay
  Expected expected;
  OfflineOutput serial;  // setup's serial run, the parallel passes' reference
  std::unique_ptr<core::PipelineWorkspace> workspace;
  double generate_s = 0;
};

// attempted/failed as the final JSON line reports them: each offline pass
// and each packet offered to the daemon is one operation.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failures;  // what -> passes

  void add(std::uint64_t ops, std::uint64_t bad, const std::string& what) {
    attempted += ops;
    failed += bad;
    if (bad > 0) ++failures[what];
  }
};

// storm_observed's scraper: GET /metrics and /status from 127.0.0.1:`port`
// at 10 Hz on its own thread until stop() or destruction.
class Scraper {
 public:
  explicit Scraper(int port) : thread_([this, port] { loop(port); }) {}
  ~Scraper() { stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  // Stops and joins the thread; returns the successful scrapes.
  std::uint64_t stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
    return scrapes_.load(std::memory_order_relaxed);
  }

 private:
  void loop(int port) {
    while (!stop_.load(std::memory_order_acquire)) {
      for (const char* path : {"/metrics", "/status"}) {
        int status = 0;
        std::string body, error;
        if (net::http_get(port, path, &status, &body, &error) &&
            status == 200) {
          scrapes_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      for (int i = 0; i < 10 && !stop_.load(std::memory_order_acquire); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> scrapes_{0};
  std::thread thread_;  // last: starts after the members it uses
};

// --- the benchmark ---------------------------------------------------------

class Bench {
 public:
  explicit Bench(Options options)
      : opt_(std::move(options)),
        input_(opt_.workload == "backbone_busy" ? "backbone_busy"
                                                : "loop_storm") {
    if (opt_.workload == "storm_observed") hooks_ = std::make_unique<Hooks>();
    fs::create_directories(opt_.workdir);
    stem_ = opt_.workdir + "/" + opt_.workload + "-" +
            std::to_string(opt_.seed);
  }

  ~Bench() {
    std::error_code ec;
    fs::remove(stem_ + ".pcap", ec);
    fs::remove_all(stem_ + ".ckpt", ec);
  }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  // Metric name -> (value, unit).
  using Metrics = std::map<std::string, std::pair<double, std::string>>;

  // Runs the setups and the timed passes; returns the metrics to print.
  Metrics run();

  const Ledger& ledger() const { return ledger_; }

 private:

  // Builds p_ from the seed and runs the checked warm-up passes.
  void setup();
  core::LoopDetectorConfig offline_config(unsigned threads) const;
  void check_serial(const core::LoopDetectionResult& result,
                    const std::string& what);
  void check_parallel(const core::LoopDetectionResult& result,
                      const std::string& what);
  // read_pcap_fast + detect_loops, timed end to end; returns seconds.
  double offline_pass(unsigned threads);

  enum class Feed { inline_max, ring_max, paced };
  struct DaemonPass {
    double wall_s = 0;
    daemon::DaemonStats stats;
    std::vector<double> alert_latency_us;  // paced only
    double lateness_p99_us = 0;            // paced only
    std::int64_t producer_gap_ns = 0;      // ring_max with layers
    double consumer_busy_s = 0;            // with layers
    std::uint64_t checkpoint_bytes = 0;    // storm_observed
    std::uint64_t scrapes = 0;             // storm_observed
  };
  DaemonPass daemon_pass(Feed feed, bool layers);

  Metrics run_untraced();
  Metrics run_traced();
  void report(const std::string& name, const std::vector<double>& values,
              const std::string& unit, Metrics& out) const;

  Options opt_;
  std::string input_;
  std::string stem_;
  std::unique_ptr<Hooks> hooks_;
  // The traced parallel passes' registry. The workspace's pool keeps
  // pointers into the registry it ran with, so this outlives p_.
  telemetry::Registry layer_registry_;
  std::unique_ptr<Prepared> p_;
  Ledger ledger_;
  std::vector<double> setup_s_;
};

core::LoopDetectorConfig Bench::offline_config(unsigned threads) const {
  core::LoopDetectorConfig cfg;
  cfg.parallel.num_threads = threads;
  cfg.parallel.shard_bits = kShardBits;
  if (threads > 1 && p_) cfg.workspace = p_->workspace.get();
  if (hooks_) {
    cfg.registry = &hooks_->registry;
    cfg.journal = &hooks_->offline_journal;
  }
  return cfg;
}

void Bench::setup() {
  p_ = std::make_unique<Prepared>();
  p_->pcap = stem_ + ".pcap";
  auto generated = generate_in_child(input_, opt_.seed, p_->pcap);
  p_->generate_s = generated.generate_s;
  p_->expected = std::move(generated.expected);
  if (!p_->expected.pin_ok) {
    std::cerr << "rloopbench: reference disagrees with the pinned counts for "
              << input_ << " seed " << opt_.seed << ": got "
              << p_->expected.pin << "\n";
  }
  if (opt_.corrupt_reference) rloopbench::corrupt(p_->expected);
  p_->trace = net::read_pcap_fast(p_->pcap);
  p_->workspace = std::make_unique<core::PipelineWorkspace>();
  // Warm-up: one serial and one parallel pass, both checked; the serial
  // result becomes the parallel passes' field-for-field reference.
  const net::Trace trace = net::read_pcap_fast(p_->pcap);
  auto serial = core::detect_loops(trace, offline_config(1));
  const bool ok = p_->expected.pin_ok &&
                  rloopbench::render_loops(serial.loops) == p_->expected.loops;
  ledger_.add(1, ok ? 0 : 1, "setup serial pass: loops differ");
  p_->serial = rloopbench::strip_records(std::move(serial));
  check_parallel(core::detect_loops(trace, offline_config(kParallelThreads)),
                 "setup parallel pass");
}

void Bench::check_serial(const core::LoopDetectionResult& result,
                         const std::string& what) {
  const bool ok = p_->expected.pin_ok &&
                  rloopbench::render_loops(result.loops) ==
                      p_->expected.loops &&
                  rloopbench::same_output(result, p_->serial);
  ledger_.add(1, ok ? 0 : 1, what + ": loops differ from the reference");
}

void Bench::check_parallel(const core::LoopDetectionResult& result,
                           const std::string& what) {
  const bool ok =
      p_->expected.pin_ok && rloopbench::same_output(result, p_->serial);
  ledger_.add(1, ok ? 0 : 1, what + ": output differs from serial");
}

double Bench::offline_pass(unsigned threads) {
  const auto cfg = offline_config(threads);
  telemetry::Registry* reg = hooks_ ? &hooks_->registry : nullptr;
  const std::int64_t t0 = now_ns();
  const net::Trace trace = net::read_pcap_fast(p_->pcap, reg);
  const auto result = core::detect_loops(trace, cfg);
  const std::int64_t t1 = now_ns();
  if (threads > 1) {
    check_parallel(result, "offline parallel pass");
  } else {
    check_serial(result, "offline serial pass");
  }
  return seconds_between(t0, t1);
}

Bench::DaemonPass Bench::daemon_pass(Feed feed, bool layers) {
  DaemonPass out;
  daemon::DaemonConfig cfg;
  cfg.use_ring = feed != Feed::inline_max;
  cfg.back_pressure = feed == Feed::paced ? daemon::BackPressure::drop_newest
                                          : daemon::BackPressure::block;
  cfg.streaming = streaming_config();
  const std::string ckpt_dir = stem_ + ".ckpt";
  if (hooks_) {
    // Fresh per pass: a leftover snapshot would be restored and skip the
    // whole trace.
    fs::remove_all(ckpt_dir);
    fs::create_directories(ckpt_dir);
    cfg.checkpoint_dir = ckpt_dir;
    cfg.checkpoint_interval = kCheckpointInterval;
  }
  telemetry::Registry local;  // consumer busy time when no hooks registry
  telemetry::Registry* reg =
      hooks_ ? &hooks_->registry : (layers ? &local : nullptr);

  auto source = std::make_unique<PacedSource>(
      &p_->trace, feed == Feed::paced ? kPacedRatePps : 0.0,
      layers && feed == Feed::ring_max);
  const PacedSource* src = source.get();
  std::vector<core::LoopAlert> alerts;
  std::vector<std::int64_t> alert_ns;
  alerts.reserve(1 << 12);
  alert_ns.reserve(1 << 12);
  // The hub and server outlive the daemon; the scraper stops first.
  std::unique_ptr<daemon::ObservabilityHub> hub;
  std::unique_ptr<daemon::ObservabilityServer> server;
  if (hooks_) {
    hub = std::make_unique<daemon::ObservabilityHub>();
    server = std::make_unique<daemon::ObservabilityServer>(hub.get(), reg);
    std::string error;
    if (!server->start(&error)) {
      throw std::runtime_error("http server: " + error);
    }
  }
  daemon::Daemon d(
      cfg, std::move(source),
      [&](const core::LoopAlert& a) {
        alert_ns.push_back(now_ns());
        alerts.push_back(a);
      },
      reg, hooks_ ? &hooks_->daemon_journal : nullptr);
  std::unique_ptr<Scraper> scraper;
  if (hooks_) {
    d.attach_observability(hub.get());
    scraper = std::make_unique<Scraper>(server->port());
  }

  double epoch_ns_before = 0;
  const auto epoch_hist = [&] {
    return reg->histogram("rloop_daemon_epoch_latency_ns", {1.0});
  };
  if (reg) epoch_ns_before = epoch_hist()->sum();

  const std::int64_t t0 = now_ns();
  out.stats = d.run();
  const std::int64_t t1 = now_ns();
  out.wall_s = seconds_between(t0, t1);

  if (hooks_) {
    out.scrapes = scraper->stop();
    server->stop();
    for (const auto& entry : fs::directory_iterator(ckpt_dir)) {
      if (entry.is_regular_file()) out.checkpoint_bytes += entry.file_size();
    }
  }
  if (reg) out.consumer_busy_s = (epoch_hist()->sum() - epoch_ns_before) / 1e9;
  out.producer_gap_ns = src->gap_total_ns();

  if (feed == Feed::paced) {
    out.lateness_p99_us = src->lateness_p99_ns() / 1e3;
    const net::Trace& trace = p_->trace;
    for (std::size_t k = 0; k < alerts.size(); ++k) {
      // The first record stamped raised_at (timestamps are non-decreasing);
      // with equal stamps this is the earliest due time, never a later one.
      std::size_t lo = 0, hi = trace.size();
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (trace[mid].ts < alerts[k].raised_at) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      out.alert_latency_us.push_back(
          static_cast<double>(alert_ns[k] - src->due_ns(lo)) / 1e3);
    }
  }

  const auto& s = out.stats;
  const bool complete =
      s.invariant_ok() && s.pushed == p_->trace.size() && s.dropped == 0 &&
      s.consumed == s.pushed;
  // Without drops the daemon must reproduce the inline detector exactly;
  // dropped packets are failures on their own.
  const bool ok =
      s.invariant_ok() && s.pushed == p_->trace.size() && p_->expected.pin_ok &&
      (!complete ||
       rloopbench::render_alerts(alerts) == p_->expected.alerts);
  const char* what = feed == Feed::paced      ? "paced daemon pass"
                     : feed == Feed::ring_max ? "ring daemon pass"
                                              : "inline daemon pass";
  ledger_.add(s.pushed, ok ? s.dropped : s.pushed,
              std::string(what) +
                  (ok ? ": packets dropped"
                      : ": alerts or ledger differ from the inline detector"));
  return out;
}

void Bench::report(const std::string& name, const std::vector<double>& values,
                   const std::string& unit, Metrics& out) const {
  const auto s = rloopbench::summarize(values);
  std::cout << "  " << std::left << std::setw(34) << name << std::right
            << std::setw(14) << std::setprecision(6) << s.median << " "
            << std::left << std::setw(6) << unit << std::right
            << "  p25 " << std::setprecision(6) << s.p25 << "  p75 "
            << s.p75 << "  n=" << s.n << "\n";
  out[name] = {s.median, unit};
}

Bench::Metrics Bench::run() {
  // Each set-up rebuilds every input from the seed; setup_s is their
  // median. All but the last run in forked children that report only their
  // duration, so this process's heap, and peak_rss_mb, sees one set-up
  // whatever their number.
  const int setups = opt_.trace ? 1 : kSetups;
  for (int i = 1; i < setups; ++i) {
    const std::string text = run_in_child([this] {
      const std::int64_t t0 = now_ns();
      setup();
      return std::to_string(seconds_between(t0, now_ns()));
    });
    setup_s_.push_back(std::stod(text));
  }
  const std::int64_t t0 = now_ns();
  setup();
  setup_s_.push_back(seconds_between(t0, now_ns()));
  std::cout << "rloopbench workload=" << opt_.workload << " seed=" << opt_.seed
            << " trace=" << (opt_.trace ? 1 : 0) << " seconds=" << opt_.seconds
            << " records=" << p_->trace.size()
            << " pinned=" << (p_->expected.pinned ? "yes" : "no")
            << " reference: " << rloopbench::describe(p_->expected,
                                                      p_->trace.size())
            << "\n";
  return opt_.trace ? run_traced() : run_untraced();
}

Bench::Metrics Bench::run_untraced() {
  const double n = static_cast<double>(p_->trace.size());
  std::vector<double> serial, parallel, daemon_max;
  const std::int64_t start = now_ns();
  for (int round = 0;
       round < kMinRoundsUntraced ||
       seconds_between(start, now_ns()) < opt_.seconds;
       ++round) {
    serial.push_back(n / offline_pass(1) / 1e6);
    parallel.push_back(n / offline_pass(kParallelThreads) / 1e6);
    const auto full = daemon_pass(Feed::ring_max, false);
    daemon_max.push_back(static_cast<double>(full.stats.consumed) /
                         full.wall_s / 1e6);
  }
  Metrics m;
  std::cout << "end-to-end (median over passes):\n";
  report("offline_serial_mpps", serial, "Mpps", m);
  report("offline_parallel_mpps", parallel, "Mpps", m);
  report("daemon_max_mpps", daemon_max, "Mpps", m);
  report("peak_rss_mb", {rloopbench::peak_rss_mb()}, "MB", m);
  report("setup_s", setup_s_, "s", m);
  return m;
}

// Self time of every span: its duration minus the time its direct children
// (same thread, one level deeper, inside its interval) cover.
std::map<const telemetry::SpanEvent*, std::int64_t> self_times(
    const std::vector<telemetry::SpanEvent>& events) {
  std::map<const telemetry::SpanEvent*, std::int64_t> self;
  for (const auto& parent : events) {
    std::int64_t covered = 0;
    for (const auto& child : events) {
      if (child.tid == parent.tid && child.depth == parent.depth + 1 &&
          child.start_ns >= parent.start_ns &&
          child.start_ns + child.duration_ns <=
              parent.start_ns + parent.duration_ns) {
        covered += child.duration_ns;
      }
    }
    self[&parent] = parent.duration_ns - covered;
  }
  return self;
}

Bench::Metrics Bench::run_traced() {
  const double n = static_cast<double>(p_->trace.size());
  telemetry::TraceSink sink;
  rloopbench::set_alloc_counting(true);

  // Per-pass samples keyed by metric name.
  std::map<std::string, std::vector<double>> v;
  const auto ns_per_pkt = [&](std::int64_t ns) {
    return static_cast<double>(ns) / n;
  };
  const auto allocs_per_pkt = [&](std::uint64_t allocs) {
    return static_cast<double>(allocs) / n;
  };
  std::vector<double> alert_latency_all, alert_p50;
  telemetry::Registry* hook_reg = hooks_ ? &hooks_->registry : nullptr;
  telemetry::DecisionLog* journal =
      hooks_ ? &hooks_->offline_journal : nullptr;
  const auto cfg = offline_config(1);

  const std::int64_t start = now_ns();
  for (int round = 0; round < kMinRoundsTraced ||
                      seconds_between(start, now_ns()) < opt_.seconds;
       ++round) {
    // The untraced serial pass the traced one is compared against. Their
    // order alternates, so neither always runs on the caches and heap the
    // other left behind.
    const auto untraced = [&] {
      v["untraced_serial_s"].push_back(offline_pass(1));
    };
    if (round % 2 == 0) untraced();

    // Traced serial: one span per public layer call, the same calls
    // detect_loops() makes on its serial path.
    core::LoopDetectionResult result;
    std::uint64_t detect_allocs = 0;
    net::Trace trace;  // outlives the root span, as in offline_pass()
    core::RecordStore store;
    {
      const telemetry::ScopedSpan root(&sink, "bench.serial", "bench");
      {
        const telemetry::ScopedSpan span(&sink, "net.ingest", "net");
        trace = net::read_pcap_fast(p_->pcap, hook_reg);
      }
      {
        const telemetry::ScopedSpan span(&sink, "core.parse", "core");
        result.records = core::parse_trace(trace);
        result.total_records = result.records.size();
        for (const auto& rec : result.records) {
          if (!rec.ok) ++result.parse_failures;
        }
      }
      {
        const telemetry::ScopedSpan span(&sink, "core.columnize", "core");
        store = core::RecordStore::build(trace, result.records);
      }
      {
        const telemetry::ScopedSpan span(&sink, "core.detect", "core");
        const std::uint64_t a0 = rloopbench::alloc_count();
        const core::ReplicaDetector detector(cfg.detector, hook_reg,
                                             journal);
        result.raw_streams = detector.detect(store);
        detect_allocs = rloopbench::alloc_count() - a0;
      }
      {
        const telemetry::ScopedSpan span(&sink, "core.validate", "core");
        const core::StreamValidator validator(cfg.validator, hook_reg,
                                              journal);
        result.valid_streams =
            validator.validate(store, result.raw_streams, &result.validation);
      }
      {
        const telemetry::ScopedSpan span(&sink, "core.merge", "core");
        const core::StreamMerger merger(cfg.merger, hook_reg, journal);
        result.loops = merger.merge(store, result.valid_streams);
      }
    }
    check_serial(result, "traced serial pass");
    if (round % 2 == 1) untraced();
    v["core.detect_allocs_per_pkt"].push_back(allocs_per_pkt(detect_allocs));
    v["core.validate_rejected"].push_back(static_cast<double>(
        result.validation.rejected_too_small +
        result.validation.rejected_prefix_conflict));
    v["core.merge_loops"].push_back(static_cast<double>(result.loops.size()));

    if (round == 0) {
      // Candidate and emission counts, from the detector's own counters on
      // an untimed run over the same store (counting inside the timed run
      // would perturb it).
      telemetry::Registry counts;
      core::ReplicaDetector(cfg.detector, &counts).detect(store);
      const double opened = static_cast<double>(
          counts.counter("rloop_detector_streams_opened_total")->value());
      const double emitted = static_cast<double>(
          counts.counter("rloop_detector_streams_emitted_total")->value());
      v["core.detect_candidates"].push_back(opened);
      v["core.detect_emitted"].push_back(emitted);
      v["core.detect_useful_ratio"].push_back(opened > 0 ? emitted / opened
                                                         : 0.0);
    }

    // Staged parallel pipeline on the in-memory trace, with a registry for
    // the stage-occupancy counters (ingest = body 0, which hashes and
    // partitions; detect = the workers).
    {
      auto par_cfg = offline_config(kParallelThreads);
      if (!par_cfg.registry) par_cfg.registry = &layer_registry_;
      const auto occupancy = [&](const char* stage) {
        const auto ns = [&](const char* name) {
          return static_cast<double>(
              par_cfg.registry->counter(name, {{"stage", stage}})->value());
        };
        return std::pair{ns("rloop_pipeline_stage_busy_ns_total"),
                         ns("rloop_pipeline_stage_idle_ns_total")};
      };
      const auto busy_share = [&](const char* stage,
                                  std::pair<double, double> before) {
        const auto [busy, idle] = occupancy(stage);
        const double b = busy - before.first;
        const double total = b + idle - before.second;
        return total > 0 ? b / total : 0.0;
      };
      const auto body0 = occupancy("ingest");
      const auto workers0 = occupancy("detect");
      core::LoopDetectionResult par;
      const std::uint64_t a0 = rloopbench::alloc_count();
      const std::int64_t t0 = now_ns();
      {
        const telemetry::ScopedSpan span(&sink, "core.pipeline", "core");
        par = core::detect_loops(p_->trace, par_cfg);
      }
      const std::int64_t t1 = now_ns();
      v["core.pipeline_allocs_per_pkt"].push_back(
          allocs_per_pkt(rloopbench::alloc_count() - a0));
      v["core.pipeline_ns_per_pkt"].push_back(ns_per_pkt(t1 - t0));
      v["core.pipeline_driver_busy_share"].push_back(
          busy_share("ingest", body0));
      v["core.pipeline_worker_busy_share"].push_back(
          busy_share("detect", workers0));
      check_parallel(par, "traced parallel pass");
    }

    // The streaming detector alone, inline on the in-memory trace.
    {
      std::vector<core::LoopAlert> alerts;
      core::StreamingDetector live(
          streaming_config(),
          [&](const core::LoopAlert& a) { alerts.push_back(a); }, hook_reg,
          hooks_ ? &hooks_->daemon_journal : nullptr);
      const std::int64_t t0 = now_ns();
      {
        const telemetry::ScopedSpan span(&sink, "core.streaming", "core");
        for (std::size_t i = 0; i < p_->trace.size(); ++i) {
          live.on_packet(p_->trace[i].ts, p_->trace[i].bytes());
        }
      }
      const std::int64_t t1 = now_ns();
      v["core.streaming_ns_per_pkt"].push_back(ns_per_pkt(t1 - t0));
      v["core.streaming_peak_open"].push_back(
          static_cast<double>(live.peak_open_entries()));
      v["core.streaming_alerts"].push_back(static_cast<double>(alerts.size()));
      const bool ok = p_->expected.pin_ok &&
                      rloopbench::render_alerts(alerts) == p_->expected.alerts;
      ledger_.add(1, ok ? 0 : 1, "inline streaming pass: alerts differ");
    }

    {
      DaemonPass inl;
      {
        const telemetry::ScopedSpan span(&sink, "daemon.inline", "daemon");
        inl = daemon_pass(Feed::inline_max, true);
      }
      v["daemon.inline_ns_per_pkt"].push_back(
          inl.wall_s * 1e9 / static_cast<double>(inl.stats.consumed));
    }
    {
      DaemonPass ring;
      {
        const telemetry::ScopedSpan span(&sink, "daemon.ring", "daemon");
        ring = daemon_pass(Feed::ring_max, true);
      }
      const auto consumed = static_cast<double>(ring.stats.consumed);
      v["daemon.consumer_busy_share"].push_back(ring.consumer_busy_s /
                                                ring.wall_s);
      v["daemon.producer_wait_ns_per_pkt"].push_back(
          static_cast<double>(ring.producer_gap_ns) / consumed);
      v["daemon.batch_mean"].push_back(
          consumed / static_cast<double>(std::max<std::uint64_t>(
                         1, ring.stats.epochs)));
    }
    {
      DaemonPass paced;
      {
        const telemetry::ScopedSpan span(&sink, "daemon.paced", "daemon");
        paced = daemon_pass(Feed::paced, true);
      }
      v["daemon.generator_late_p99_us"].push_back(paced.lateness_p99_us);
      if (!paced.alert_latency_us.empty()) {
        alert_p50.push_back(
            rloopbench::quantile(paced.alert_latency_us, 0.5));
      }
      alert_latency_all.insert(alert_latency_all.end(),
                               paced.alert_latency_us.begin(),
                               paced.alert_latency_us.end());
      v["daemon.checkpoints_written"].push_back(
          static_cast<double>(paced.stats.checkpoints_written));
      v["daemon.checkpoint_bytes"].push_back(
          static_cast<double>(paced.checkpoint_bytes));
      v["obs.scrapes"].push_back(static_cast<double>(paced.scrapes));
    }
  }
  rloopbench::set_alloc_counting(false);

  // Layer times from the spans: self time per pass, median over passes.
  const auto events = sink.snapshot();
  const auto self = self_times(events);
  std::vector<double> traced_total, uncovered;
  for (const auto& ev : events) {
    const std::string name = ev.name;
    if (name == "bench.serial") {
      traced_total.push_back(static_cast<double>(ev.duration_ns) / 1e9);
      uncovered.push_back(static_cast<double>(self.at(&ev)) /
                          static_cast<double>(ev.duration_ns));
    } else if (ev.depth == 1) {  // a stage span inside bench.serial
      v[name + "_ns_per_pkt"].push_back(ns_per_pkt(self.at(&ev)));
    }
  }
  const std::string spans_path = stem_ + ".spans.json";
  {
    std::ofstream out(spans_path);
    out << sink.chrome_trace_json();
    if (!out) throw std::runtime_error("cannot write " + spans_path);
  }

  Metrics m;
  std::cout << "per-layer (traced run, median over passes; spans in "
            << spans_path << ", " << events.size() << " spans, "
            << sink.dropped() << " dropped):\n";
  const auto put = [&](const std::string& name, const std::string& unit) {
    report(name, v[name], unit, m);
  };
  put("net.ingest_ns_per_pkt", "ns/pkt");
  put("core.parse_ns_per_pkt", "ns/pkt");
  put("core.columnize_ns_per_pkt", "ns/pkt");
  put("core.detect_ns_per_pkt", "ns/pkt");
  put("core.detect_candidates", "count");
  put("core.detect_emitted", "count");
  put("core.detect_useful_ratio", "ratio");
  put("core.detect_allocs_per_pkt", "allocs/pkt");
  put("core.validate_ns_per_pkt", "ns/pkt");
  put("core.validate_rejected", "count");
  put("core.merge_ns_per_pkt", "ns/pkt");
  put("core.merge_loops", "count");
  put("core.pipeline_ns_per_pkt", "ns/pkt");
  put("core.pipeline_allocs_per_pkt", "allocs/pkt");
  put("core.pipeline_driver_busy_share", "share");
  put("core.pipeline_worker_busy_share", "share");
  put("core.streaming_ns_per_pkt", "ns/pkt");
  put("core.streaming_peak_open", "count");
  put("core.streaming_alerts", "count");
  put("daemon.inline_ns_per_pkt", "ns/pkt");
  put("daemon.consumer_busy_share", "share");
  put("daemon.producer_wait_ns_per_pkt", "ns/pkt");
  put("daemon.batch_mean", "pkts");
  put("daemon.generator_late_p99_us", "us");
  report("daemon.alert_p50_us", alert_p50, "us", m);
  report("daemon.alert_p90_us", {rloopbench::quantile(alert_latency_all, 0.9)},
         "us", m);
  report("daemon.alert_samples",
         {static_cast<double>(alert_latency_all.size())}, "count", m);
  put("daemon.checkpoints_written", "count");
  put("daemon.checkpoint_bytes", "bytes");
  put("obs.scrapes", "count");
  report("sim.generate_s", {p_->generate_s}, "s", m);
  const double untraced = rloopbench::quantile(v["untraced_serial_s"], 0.5);
  report("bench.trace_overhead_share",
         {rloopbench::quantile(traced_total, 0.5) / untraced - 1.0}, "share",
         m);
  report("bench.serial_uncovered_share", uncovered, "share", m);
  const double attempted = static_cast<double>(ledger_.attempted);
  report("bench.failed_share",
         {attempted > 0 ? static_cast<double>(ledger_.failed) / attempted : 0},
         "share", m);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  try {
    Bench bench(options);
    const auto metrics = bench.run();
    const auto& ledger = bench.ledger();
    for (const auto& [what, passes] : ledger.failures) {
      std::cerr << "rloopbench: FAILED " << what << " (" << passes
                << " passes)\n";
    }
    const double attempted = static_cast<double>(ledger.attempted);
    std::cout << "failed_share " << std::setprecision(6)
              << (attempted > 0 ? static_cast<double>(ledger.failed) / attempted
                                : 0.0)
              << " (" << ledger.failed << " of " << ledger.attempted
              << " operations: offline passes + packets offered to the "
                 "daemon)\n";
    std::ostringstream json;
    json << std::setprecision(10) << "{\"correct\": "
         << (ledger.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << ledger.attempted
         << ", \"failed\": " << ledger.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : metrics) {
      if (!std::isfinite(value.first)) {
        throw std::runtime_error("metric " + name + " is not finite");
      }
      if (!first) json << ", ";
      first = false;
      json << "\"" << name << "\": {\"value\": " << value.first
           << ", \"unit\": \"" << value.second << "\"}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "rloopbench: error: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
