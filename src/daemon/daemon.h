// The always-on loop-detection daemon (library core of `rloopd`).
//
// Two threads, one ring:
//
//   PacketSource --> [producer thread] --> SpscRing --> [consumer thread]
//                                                        StreamingDetector
//
// The producer does nothing but pull records from the source and push them
// into the ring, applying the configured back-pressure policy when the ring
// is full: `block` spins (lossless, latency moves upstream), `drop_newest`
// counts the record into `dropped` and moves on (bounded latency, explicit
// loss). The consumer — run() itself, on the calling thread — drains the
// ring in batches of at most `batch_size` ("epochs"), feeds the detector,
// and records per-epoch latency + batch-occupancy histograms, amortizing
// per-packet synchronization to ~1/batch_size.
//
// Accounting is exact by construction: `pushed` counts records the producer
// took from the source, `dropped` the ones back-pressure discarded, and
// `consumed` the ones the detection thread processed. On any exit path the
// consumer drains whatever the producer enqueued, so after run() returns
//
//     pushed == consumed + dropped            (DaemonStats::invariant_ok)
//
// holds exactly — the overload story is a number, not a shrug.
//
// Lifecycle: run() returns when the source is exhausted or after
// request_stop() (the SIGINT/SIGTERM path: producer stops promptly, ring is
// drained, stats flushed). request_reload() (SIGHUP) re-reads the config
// file at the next epoch boundary and applies the reloadable keys to the
// live detector. Both are one atomic store — safe to call from a signal
// handler or another thread.
//
// Memory is bounded end to end: the ring is fixed-size, the detector runs
// under StreamingConfig::max_open_entries with watermark eviction (surfaced
// here as rloop_daemon_evicted_total), and stats go through the existing
// telemetry registry, so days-long runs against millions of /24s hold a
// fixed RSS.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/streaming_detector.h"
#include "daemon/checkpoint.h"
#include "daemon/config.h"
#include "daemon/governor.h"
#include "daemon/packet_source.h"
#include "util/spsc_ring.h"
#include "net/trace.h"
#include "telemetry/decision_log.h"
#include "telemetry/registry.h"

namespace rloop::daemon {

class ObservabilityHub;  // observability.h; attach_observability is optional

struct DaemonStats {
  std::string source;
  std::uint64_t pushed = 0;    // records taken from the source
  std::uint64_t dropped = 0;   // discarded by drop_newest back-pressure
  std::uint64_t consumed = 0;  // records the detection thread processed
  std::uint64_t epochs = 0;    // consumer batches
  std::uint64_t reloads = 0;   // SIGHUP reloads applied
  std::uint64_t alerts = 0;
  std::uint64_t reordered = 0;
  std::uint64_t reorder_dropped = 0;
  std::uint64_t evicted = 0;
  std::size_t open_entries = 0;
  std::size_t peak_open_entries = 0;
  net::TimeNs last_packet_ts = 0;
  // Checkpointing (0s when no checkpoint_dir is configured).
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_failures = 0;
  std::uint64_t restored_seq = 0;  // snapshot this run resumed from; 0 = cold
  // Graded degradation (governor.h); tier 0 with the governor disabled.
  int degrade_tier = 0;
  std::uint64_t degrade_escalations = 0;
  std::uint64_t degrade_deescalations = 0;
  std::uint64_t alloc_failures = 0;
  std::uint64_t sampled_dropped = 0;

  bool invariant_ok() const { return pushed == consumed + dropped; }

  // One JSON object; with `metrics_json` (a telemetry::to_json array) it is
  // embedded under "metrics". This is the --stats-out payload CI asserts on.
  std::string to_json(const std::string& metrics_json = "") const;
};

class Daemon {
 public:
  using AlertCallback = core::StreamingDetector::AlertCallback;

  // `registry`/`journal` optional, must outlive the daemon. The alert
  // callback fires on the consumer thread.
  Daemon(DaemonConfig config, std::unique_ptr<PacketSource> source,
         AlertCallback on_alert, telemetry::Registry* registry = nullptr,
         telemetry::DecisionLog* journal = nullptr);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Attaches the live observability plane (observability.h). The daemon
  // publishes a StatusSnapshot at every epoch boundary and the open suspect
  // table every `loops_publish_every` epochs — always with try_lock, so a
  // scraper holding the hub never stalls the consumer thread. Set before
  // run(); the hub must outlive the daemon.
  void attach_observability(ObservabilityHub* hub) { obs_hub_ = hub; }

  // Receives each periodic stats dump (Prometheus/JSON text per
  // config.stats_format). Set before run(); fires on the consumer thread,
  // driven by packet timestamps so replays are deterministic.
  using StatsSink = std::function<void(const std::string&)>;
  void set_stats_sink(StatsSink sink) { stats_sink_ = std::move(sink); }

  // Blocks until the source ends or request_stop(); returns final stats.
  // Call at most once.
  DaemonStats run();

  // Graceful drain: producer stops, ring is drained, run() returns.
  // One relaxed atomic store — async-signal-safe.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }
  // Re-read config_file at the next epoch boundary. Async-signal-safe.
  void request_reload() { reload_.store(true, std::memory_order_relaxed); }

  bool stop_requested() const {
    return stop_.load(std::memory_order_relaxed);
  }

  // Live view (consistent only after run() returns).
  DaemonStats stats() const;

  const core::StreamingDetector& detector() const { return detector_; }
  // Current config (reload may have changed the reloadable keys).
  const DaemonConfig& config() const { return config_; }

  // How this run started: cold, or resumed from snapshot `seq` written at
  // `wall_unix_s`. Valid after construction.
  struct RestoreInfo {
    bool restored = false;
    std::uint64_t seq = 0;
    std::uint64_t wall_unix_s = 0;
    std::uint64_t source_offset = 0;  // records skipped on resume
  };
  const RestoreInfo& restore_info() const { return restore_info_; }

  const OverloadGovernor& governor() const { return governor_; }

 private:
  void producer_loop();
  void consume_batch(const net::TraceRecord* batch, std::size_t n);
  void apply_reload();
  void try_restore();
  // Cuts a snapshot when due (`force` ignores the interval); counts
  // failures but never throws — checkpointing must not take the daemon down.
  void maybe_checkpoint(bool force);
  // Applies the governor tier's effects (journal, batch width, sampling,
  // forced drop). Consumer thread only.
  void apply_tier(DegradeTier tier);
  // Epoch-boundary publish into obs_hub_ (no-op when unattached). Status
  // every call; the suspect table every loops_publish_every epochs or when
  // `final_publish` (drain) is set.
  void publish_observability(bool final_publish);
  // Mirrors failpoint trip counts into rloop_failpoint_trips_total{name=}.
  void export_failpoint_trips();

  DaemonConfig config_;
  std::unique_ptr<PacketSource> source_;
  telemetry::Registry* registry_ = nullptr;
  telemetry::DecisionLog* journal_ = nullptr;
  StatsSink stats_sink_;
  core::StreamingDetector detector_;
  util::SpscRing<net::TraceRecord> ring_;
  OverloadGovernor governor_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> reload_{false};
  std::atomic<bool> producer_done_{false};
  // Governor tier 4: producer drops on a full ring even under `block`.
  std::atomic<bool> force_drop_{false};

  // Producer-written, consumer/exporter-read.
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> dropped_{0};
  // Consumer-written.
  std::atomic<std::uint64_t> consumed_{0};
  std::uint64_t epochs_ = 0;
  std::uint64_t reloads_ = 0;
  std::uint64_t alerts_ = 0;
  net::TimeNs last_packet_ts_ = 0;
  std::uint64_t evicted_reported_ = 0;
  // Consumer-thread checkpoint state.
  std::uint64_t ckpt_seq_ = 0;
  std::uint64_t checkpoints_written_ = 0;
  std::uint64_t checkpoint_failures_ = 0;
  net::TimeNs last_ckpt_ts_ = 0;
  std::uint64_t last_ckpt_wall_unix_s_ = 0;  // newest on-disk snapshot
  RestoreInfo restore_info_;
  // Observability plane (null = detached; zero publish cost beyond a branch).
  ObservabilityHub* obs_hub_ = nullptr;
  bool obs_started_ = false;  // consumer loop entered
  std::uint64_t start_unix_s_ = 0;
  std::chrono::steady_clock::time_point start_steady_{};
  static constexpr std::uint64_t kLoopsPublishEvery = 8;
  static constexpr std::size_t kLoopsPublishMax = 4096;
  // Effective per-epoch drain limit (batch_size, widened at tier >= 2).
  std::size_t batch_limit_ = 0;
  std::map<std::string, std::uint64_t> failpoint_reported_;

  telemetry::Counter* m_pushed_ = nullptr;
  telemetry::Counter* m_consumed_ = nullptr;
  telemetry::Counter* m_dropped_ = nullptr;
  telemetry::Counter* m_epochs_ = nullptr;
  telemetry::Counter* m_evicted_ = nullptr;
  telemetry::Counter* m_reloads_ = nullptr;
  telemetry::Counter* m_checkpoints_ = nullptr;
  telemetry::Counter* m_ckpt_failures_ = nullptr;
  telemetry::Gauge* m_ring_occupancy_ = nullptr;
  telemetry::Histogram* m_epoch_ns_ = nullptr;
  telemetry::Histogram* m_batch_size_ = nullptr;
  telemetry::Gauge* m_uptime_s_ = nullptr;
  telemetry::Gauge* m_last_packet_ts_s_ = nullptr;
};

}  // namespace rloop::daemon
