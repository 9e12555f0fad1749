// rloopd: the always-on loop-detection daemon.
//
// Pulls packets from a source (pcap replay or the built-in backbone
// simulator), pushes them through a lock-free SPSC ring into the streaming
// detector, and prints an alert line the moment any destination /24
// accumulates a replica stream. Built for unattended operation: bounded
// memory (entry budget + watermark eviction), explicit back-pressure with
// exact drop accounting, periodic Prometheus/JSON stats, and signal-driven
// lifecycle (SIGINT/SIGTERM drain, SIGHUP reload). See DESIGN.md "Daemon
// architecture" and the README ops guide.
//
// Usage:
//   rloopd [--source pcap|sim|scenario] [--pcap <file>] [--sim <k>]
//          [--scenario <name>] [--seed <n>] [--speed <x|max>]
//          [--ring <pow2-slots>] [--batch <n>] [--policy block|drop-newest]
//          [--budget <entries>] [--reorder-tolerance-ms <ms>]
//          [--stats <seconds>] [--stats-format prom|json]
//          [--stats-out <file|->] [--alerts-out <file>]
//          [--checkpoint-dir <dir>] [--checkpoint-interval <seconds>]
//          [--governor] [--config <file>] [--journal-out <file>]
//          [--http-port <port>] [--no-ring] [--quiet]
//
// With --http-port (0 = pick an ephemeral port, printed on stderr) rloopd
// serves a live observability plane on 127.0.0.1: /metrics /healthz /readyz
// /status /loops /events. See DESIGN.md "Observability plane".
//
// Signals:
//   SIGINT/SIGTERM  stop the source, drain the ring, dump final stats, exit 0
//   SIGHUP          re-read --config and apply reloadable keys live
//                   (including checkpoint_dir / checkpoint_interval_s)
//
// Restart/restore: with --checkpoint-dir set, rloopd snapshots detector
// state at epoch boundaries and on drain; on start it restores the newest
// valid snapshot, skips the already-consumed records, and suppresses alert
// lines already present in --alerts-out, so kill -9 + restart converges on
// the same alert set as an uninterrupted run (modulo records lost in the
// ring at the instant of death). A startup line on stderr says which
// happened: restored (seq, age) or cold start.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_set>

#include "daemon/daemon.h"
#include "daemon/observability.h"
#include "scenarios/scenario.h"
#include "telemetry/build_info.h"
#include "telemetry/decision_log.h"
#include "telemetry/exporter.h"
#include "util/fileio.h"

using namespace rloop;

namespace {

daemon::Daemon* g_daemon = nullptr;
// Set even when the signal lands before the Daemon exists (e.g. while the
// simulator source is still being built) so the stop is not lost.
volatile std::sig_atomic_t g_stop_flag = 0;

extern "C" void handle_stop(int) {
  g_stop_flag = 1;
  if (g_daemon) g_daemon->request_stop();
}
extern "C" void handle_reload(int) {
  if (g_daemon) g_daemon->request_reload();
}

int usage() {
  std::fprintf(
      stderr,
      "usage: rloopd [--source pcap|sim|scenario] [--pcap <file>]\n"
      "              [--sim <k>] [--scenario <name>] [--seed <n>]\n"
      "              [--speed <x|max>] [--ring <pow2>] [--batch <n>]\n"
      "              [--policy block|drop-newest] [--budget <entries>]\n"
      "              [--reorder-tolerance-ms <ms>] [--stats <seconds>]\n"
      "              [--stats-format prom|json] [--stats-out <file|->]\n"
      "              [--alerts-out <file>] [--checkpoint-dir <dir>]\n"
      "              [--checkpoint-interval <seconds>] [--governor]\n"
      "              [--config <file>] [--journal-out <file>]\n"
      "              [--http-port <port>] [--no-ring] [--quiet]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string source = "sim";
  std::string pcap_path;
  std::string scenario_name = "ddos_burst";
  std::uint64_t scenario_seed = 0;  // 0 = the scenario's pinned seed
  int sim_k = 1;
  double speed = 0;  // "max": replay as fast as the consumer can take it
  bool quiet = false;
  std::string journal_out;
  int http_port = -1;  // -1 = observability plane off
  daemon::DaemonConfig config;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--source" && (v = value())) {
      source = v;
      if (source != "pcap" && source != "sim" && source != "scenario") {
        return usage();
      }
    } else if (arg == "--pcap" && (v = value())) {
      pcap_path = v;
      source = "pcap";
    } else if (arg == "--sim" && (v = value())) {
      sim_k = std::atoi(v);
    } else if (arg == "--scenario" && (v = value())) {
      scenario_name = v;
      source = "scenario";
    } else if (arg == "--seed" && (v = value())) {
      scenario_seed = static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--speed" && (v = value())) {
      speed = std::strcmp(v, "max") == 0 ? 0 : std::atof(v);
    } else if (arg == "--ring" && (v = value())) {
      config.ring_capacity = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--batch" && (v = value())) {
      config.batch_size = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--policy" && (v = value())) {
      if (std::strcmp(v, "block") == 0) {
        config.back_pressure = daemon::BackPressure::block;
      } else if (std::strcmp(v, "drop-newest") == 0) {
        config.back_pressure = daemon::BackPressure::drop_newest;
      } else {
        return usage();
      }
    } else if (arg == "--budget" && (v = value())) {
      config.streaming.max_open_entries =
          static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--reorder-tolerance-ms" && (v = value())) {
      config.streaming.reorder_tolerance_ns = net::from_millis(std::atof(v));
    } else if (arg == "--stats" && (v = value())) {
      config.stats_interval = net::from_seconds(std::atof(v));
    } else if (arg == "--stats-format" && (v = value())) {
      if (std::strcmp(v, "json") == 0) {
        config.stats_format = daemon::StatsFormat::json;
      } else if (std::strcmp(v, "prom") == 0) {
        config.stats_format = daemon::StatsFormat::prometheus;
      } else {
        return usage();
      }
    } else if (arg == "--stats-out" && (v = value())) {
      config.stats_out = v;
    } else if (arg == "--alerts-out" && (v = value())) {
      config.alerts_out = v;
    } else if (arg == "--checkpoint-dir" && (v = value())) {
      config.checkpoint_dir = v;
    } else if (arg == "--checkpoint-interval" && (v = value())) {
      config.checkpoint_interval = net::from_seconds(std::atof(v));
    } else if (arg == "--governor") {
      config.governor_enabled = true;
    } else if (arg == "--config" && (v = value())) {
      config.config_file = v;
    } else if (arg == "--journal-out" && (v = value())) {
      journal_out = v;
    } else if (arg == "--http-port" && (v = value())) {
      http_port = std::atoi(v);
      if (http_port < 0 || http_port > 65535) return usage();
    } else if (arg == "--no-ring") {
      config.use_ring = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      return usage();
    }
  }
  if (source == "pcap" && pcap_path.empty()) {
    std::fprintf(stderr, "error: --source pcap requires --pcap <file>\n");
    return 2;
  }
  if (!config.config_file.empty()) {
    std::string error;
    if (!daemon::apply_config_file(config.config_file, config, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
  }

  // Install handlers before the (possibly slow) source construction so an
  // early SIGINT/SIGTERM still produces a clean exit instead of the default
  // disposition.
  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);
  std::signal(SIGHUP, handle_reload);

  telemetry::Registry registry;
  telemetry::register_build_info(&registry);
  telemetry::DecisionLog journal;
  telemetry::DecisionLog* journal_ptr =
      journal_out.empty() ? nullptr : &journal;

  // The observability plane comes up before the Daemon is even constructed:
  // a slow checkpoint restore is visible as /readyz 503 "starting" instead
  // of a connection refused.
  daemon::ObservabilityHub obs_hub;
  std::unique_ptr<daemon::ObservabilityServer> obs_server;
  if (http_port >= 0) {
    daemon::ObservabilityServer::Options obs_options;
    obs_options.http.port = http_port;
    obs_server = std::make_unique<daemon::ObservabilityServer>(
        &obs_hub, &registry, obs_options);
    std::string error;
    if (!obs_server->start(&error)) {
      std::fprintf(stderr, "error: http server: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "rloopd: http listening on 127.0.0.1:%d\n",
                 obs_server->port());
  }

  std::unique_ptr<daemon::PacketSource> packets;
  try {
    if (source == "pcap") {
      packets = daemon::make_pcap_source(pcap_path, speed, &registry);
    } else if (source == "scenario") {
      const std::uint64_t seed =
          scenario_seed != 0
              ? scenario_seed
              : scenarios::canned_scenario(scenario_name).seed;
      if (!quiet) {
        std::printf("scenario %s seed=%llu\n", scenario_name.c_str(),
                    static_cast<unsigned long long>(seed));
      }
      packets =
          daemon::make_scenario_source(scenario_name, speed, seed, &registry);
    } else {
      packets = daemon::make_sim_source(sim_k, speed, &registry);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::ofstream alerts_file;
  // Alert lines already published by a previous incarnation: the restored
  // run replays the span between its snapshot and the crash, so those
  // alerts fire again — suppressing exact duplicates makes crash+restart
  // emit each alert exactly once across incarnations.
  std::unordered_set<std::string> emitted;

  daemon::Daemon d(
      std::move(config), std::move(packets),
      [&](const core::LoopAlert& alert) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "[%9.3fs] LOOP suspected on %-18s ttl_delta=%d "
                      "replicas=%llu (stream began %.1f ms earlier)",
                      net::to_seconds(alert.raised_at),
                      alert.prefix24.to_string().c_str(), alert.ttl_delta,
                      static_cast<unsigned long long>(alert.replicas),
                      net::to_millis(alert.raised_at - alert.first_seen));
        if (!emitted.empty() && emitted.count(line) > 0) return;
        if (obs_server) obs_hub.publish_event(line);
        if (!quiet) std::printf("%s\n", line);
        // Flushed per line: an alert must be on disk before the checkpoint
        // that covers it, or a kill -9 loses it for good (the restored run
        // resumes past the packet that raised it).
        if (alerts_file.is_open()) alerts_file << line << "\n" << std::flush;
      },
      &registry, journal_ptr);
  d.set_stats_sink([](const std::string& text) {
    std::printf("--- stats ---\n%s\n", text.c_str());
    std::fflush(stdout);
  });

  const daemon::Daemon::RestoreInfo& restore = d.restore_info();
  if (!d.config().alerts_out.empty()) {
    const std::string& alerts_out = d.config().alerts_out;
    if (restore.restored) {
      // Keep lines from previous incarnations and load them for dedup.
      std::ifstream prev(alerts_out);
      std::string line;
      while (std::getline(prev, line)) {
        if (!line.empty()) emitted.insert(line);
      }
      alerts_file.open(alerts_out, std::ios::app);
    } else {
      alerts_file.open(alerts_out);
    }
    if (!alerts_file.good()) {
      std::fprintf(stderr, "error: cannot write %s\n", alerts_out.c_str());
      return 1;
    }
  }

  d.attach_observability(&obs_hub);

  g_daemon = &d;
  if (g_stop_flag) d.request_stop();

  // The constructor decided cold start vs restore; say which on stderr so
  // an operator (or the crash-recovery soak) can tell at a glance. Said only
  // once the signal handlers reach the daemon, so a SIGHUP sent on seeing
  // the line is never lost.
  if (!d.config().checkpoint_dir.empty()) {
    if (restore.restored) {
      const auto now = static_cast<std::uint64_t>(std::time(nullptr));
      std::fprintf(stderr,
                   "rloopd: restored checkpoint seq=%llu age=%llus "
                   "(skipping %llu consumed records)\n",
                   static_cast<unsigned long long>(restore.seq),
                   static_cast<unsigned long long>(
                       now >= restore.wall_unix_s
                           ? now - restore.wall_unix_s
                           : 0),
                   static_cast<unsigned long long>(restore.source_offset));
    } else {
      std::fprintf(stderr, "rloopd: cold start (no valid checkpoint in %s)\n",
                   d.config().checkpoint_dir.c_str());
    }
  }

  const daemon::DaemonStats stats = d.run();
  g_daemon = nullptr;
  // Stopped after run(): the final (draining) status was published, so a
  // scraper racing the shutdown sees drained counters, not a reset.
  if (obs_server) obs_server->stop();

  if (!quiet) {
    std::printf(
        "\n%llu pushed, %llu consumed, %llu dropped (invariant %s), "
        "%llu alerts, %llu evicted, peak %zu entries\n",
        static_cast<unsigned long long>(stats.pushed),
        static_cast<unsigned long long>(stats.consumed),
        static_cast<unsigned long long>(stats.dropped),
        stats.invariant_ok() ? "ok" : "VIOLATED",
        static_cast<unsigned long long>(stats.alerts),
        static_cast<unsigned long long>(stats.evicted),
        stats.peak_open_entries);
  }

  const daemon::DaemonConfig& final_config = d.config();
  if (!final_config.stats_out.empty()) {
    const std::string json =
        stats.to_json(telemetry::to_json(registry.snapshot()));
    if (final_config.stats_out == "-") {
      std::printf("%s\n", json.c_str());
    } else {
      // Atomic publication: a scraper polling the stats file sees either
      // the previous complete snapshot or this one, never a torn write.
      std::string error;
      if (!util::write_file_atomic(final_config.stats_out, json + "\n",
                                   &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
      }
    }
  }
  if (journal_ptr) {
    std::string error;
    if (!util::write_file_atomic(journal_out, journal.dump(), &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
  }

  return stats.invariant_ok() ? 0 : 3;
}
