#include "daemon/daemon.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <new>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "daemon/observability.h"
#include "telemetry/exporter.h"
#include "util/failpoint.h"

namespace rloop::daemon {

namespace {

// Epoch wall-latency buckets: 1 us .. ~4 s.
std::vector<double> epoch_bounds_ns() {
  return telemetry::exponential_bounds(1e3, 4.0, 11);
}

// Batch-size buckets up to a 64Ki-record drain.
std::vector<double> batch_bounds() {
  return telemetry::exponential_bounds(1.0, 4.0, 9);
}

}  // namespace

std::string DaemonStats::to_json(const std::string& metrics_json) const {
  std::ostringstream out;
  out << "{\"source\":\"" << telemetry::json_escape(source) << "\""
      << ",\"pushed\":" << pushed << ",\"consumed\":" << consumed
      << ",\"dropped\":" << dropped
      << ",\"invariant_ok\":" << (invariant_ok() ? "true" : "false")
      << ",\"epochs\":" << epochs << ",\"reloads\":" << reloads
      << ",\"alerts\":" << alerts << ",\"reordered\":" << reordered
      << ",\"reorder_dropped\":" << reorder_dropped
      << ",\"evicted\":" << evicted << ",\"open_entries\":" << open_entries
      << ",\"peak_open_entries\":" << peak_open_entries
      << ",\"last_packet_ts_ns\":" << last_packet_ts
      << ",\"checkpoints_written\":" << checkpoints_written
      << ",\"checkpoint_failures\":" << checkpoint_failures
      << ",\"restored_seq\":" << restored_seq
      << ",\"degrade_tier\":" << degrade_tier
      << ",\"degrade_escalations\":" << degrade_escalations
      << ",\"degrade_deescalations\":" << degrade_deescalations
      << ",\"alloc_failures\":" << alloc_failures
      << ",\"sampled_dropped\":" << sampled_dropped;
  if (!metrics_json.empty()) out << ",\"metrics\":" << metrics_json;
  out << "}";
  return out.str();
}

Daemon::Daemon(DaemonConfig config, std::unique_ptr<PacketSource> source,
               AlertCallback on_alert, telemetry::Registry* registry,
               telemetry::DecisionLog* journal)
    : config_(std::move(config)),
      source_(std::move(source)),
      registry_(registry),
      journal_(journal),
      detector_(
          config_.streaming,
          [this, cb = std::move(on_alert)](const core::LoopAlert& alert) {
            ++alerts_;
            if (cb) cb(alert);
          },
          registry, journal),
      ring_(config_.ring_capacity),
      governor_(config_.governor, registry),
      m_pushed_(telemetry::get_counter(
          registry, "rloop_daemon_ring_pushed_total", {},
          "Records the producer took from the packet source")),
      m_consumed_(telemetry::get_counter(
          registry, "rloop_daemon_ring_consumed_total", {},
          "Records the detection thread drained from the ring")),
      m_dropped_(telemetry::get_counter(
          registry, "rloop_daemon_ring_dropped_total", {},
          "Records discarded by back-pressure (pushed == consumed + "
          "dropped)")),
      m_epochs_(telemetry::get_counter(
          registry, "rloop_daemon_epochs_total", {},
          "Consumer batches processed")),
      m_evicted_(telemetry::get_counter(
          registry, "rloop_daemon_evicted_total", {},
          "Tracked entries evicted by the daemon's entry budget")),
      m_reloads_(telemetry::get_counter(
          registry, "rloop_daemon_config_reloads_total", {},
          "SIGHUP config reloads applied")),
      m_checkpoints_(telemetry::get_counter(
          registry, "rloop_daemon_checkpoints_written_total", {},
          "State snapshots published to the checkpoint directory")),
      m_ckpt_failures_(telemetry::get_counter(
          registry, "rloop_daemon_checkpoint_failures_total", {},
          "Snapshot writes that failed (state kept, daemon continues)")),
      m_ring_occupancy_(telemetry::get_gauge(
          registry, "rloop_daemon_ring_occupancy", {},
          "Records resident in the ingest ring at last epoch")),
      m_epoch_ns_(telemetry::get_histogram(
          registry, "rloop_daemon_epoch_latency_ns", epoch_bounds_ns(), {},
          "Wall nanoseconds spent detecting per consumer epoch")),
      m_batch_size_(telemetry::get_histogram(
          registry, "rloop_daemon_batch_size", batch_bounds(), {},
          "Records drained per consumer epoch")),
      m_uptime_s_(telemetry::get_gauge(
          registry, "rloop_daemon_uptime_seconds", {},
          "Wall seconds since the daemon was constructed")),
      m_last_packet_ts_s_(telemetry::get_gauge(
          registry, "rloop_daemon_last_packet_timestamp_seconds", {},
          "Trace timestamp of the newest packet consumed, in seconds")) {
  batch_limit_ = config_.batch_size;
  start_unix_s_ = static_cast<std::uint64_t>(std::time(nullptr));
  start_steady_ = std::chrono::steady_clock::now();
  if (config_.governor_enabled) {
    governor_.set_transition_hook(
        [](DegradeTier from, DegradeTier to, double occupancy) {
          std::fprintf(stderr,
                       "rloopd: degrade tier %s -> %s (ring %.0f%% full)\n",
                       degrade_tier_name(from), degrade_tier_name(to),
                       occupancy * 100.0);
        });
  }
  try_restore();
}

Daemon::~Daemon() = default;

void Daemon::try_restore() {
  if (config_.checkpoint_dir.empty()) return;
  CheckpointState state;
  if (!load_latest_checkpoint(config_.checkpoint_dir, state)) return;
  detector_.restore(state.detector);
  // The snapshot's ledger was reconciled at write time (records still in
  // the ring were never consumed and count as lost with the old process),
  // so pushed == consumed + dropped holds from the first stats() call.
  pushed_.store(state.pushed, std::memory_order_relaxed);
  consumed_.store(state.consumed, std::memory_order_relaxed);
  dropped_.store(state.dropped, std::memory_order_relaxed);
  epochs_ = state.epochs;
  alerts_ = state.alerts;
  last_packet_ts_ = state.detector.last_ts;
  evicted_reported_ = detector_.evicted();
  ckpt_seq_ = state.seq;
  last_ckpt_ts_ = state.detector.last_ts;
  restore_info_ = {true, state.seq, state.wall_unix_s, state.source_offset};
  last_ckpt_wall_unix_s_ = state.wall_unix_s;
  if (source_) source_->skip(state.source_offset);
}

void Daemon::maybe_checkpoint(bool force) {
  if (config_.checkpoint_dir.empty()) return;
  if (!force && config_.checkpoint_interval > 0 &&
      last_packet_ts_ - last_ckpt_ts_ < config_.checkpoint_interval) {
    return;
  }
  CheckpointState state;
  state.seq = ckpt_seq_ + 1;
  state.wall_unix_s = static_cast<std::uint64_t>(std::time(nullptr));
  state.consumed = consumed_.load(std::memory_order_relaxed);
  state.dropped = dropped_.load(std::memory_order_relaxed);
  // Resume point: the consumed prefix plus back-pressure drops. Records
  // sitting in the ring at a crash are lost with the process (the "modulo
  // the ring window" caveat); reconcile `pushed` down so the restored
  // ledger balances.
  state.source_offset = state.consumed + state.dropped;
  state.pushed = state.source_offset;
  state.epochs = epochs_;
  state.alerts = alerts_;
  state.detector = detector_.snapshot();
  std::string error;
  if (write_checkpoint_file(config_.checkpoint_dir, state, &error)) {
    ckpt_seq_ = state.seq;
    last_ckpt_ts_ = last_packet_ts_;
    last_ckpt_wall_unix_s_ = state.wall_unix_s;
    ++checkpoints_written_;
    telemetry::inc(m_checkpoints_);
  } else {
    // Never fatal: detection state is intact, the previous snapshot is
    // still on disk, and the failure is visible in stats.
    ++checkpoint_failures_;
    telemetry::inc(m_ckpt_failures_);
  }
}

void Daemon::apply_tier(DegradeTier tier) {
  const int t = static_cast<int>(tier);
  detector_.set_journal(
      t >= static_cast<int>(DegradeTier::shed_observability) ? nullptr
                                                             : journal_);
  batch_limit_ = t >= static_cast<int>(DegradeTier::widen_batching)
                     ? config_.batch_size * governor_.config().batch_multiplier
                     : config_.batch_size;
  detector_.set_sample_keep_one_in(
      t >= static_cast<int>(DegradeTier::sample_suspects)
          ? governor_.config().sample_keep_one_in
          : 0);
  force_drop_.store(t >= static_cast<int>(DegradeTier::drop_newest),
                    std::memory_order_relaxed);
}

void Daemon::publish_observability(bool final_publish) {
  const double uptime_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start_steady_)
          .count();
  telemetry::set(m_uptime_s_, static_cast<std::int64_t>(uptime_s));
  telemetry::set(m_last_packet_ts_s_,
                 static_cast<std::int64_t>(last_packet_ts_ / net::kSecond));
  if (obs_hub_ == nullptr) return;

  StatusSnapshot s;
  s.stats = stats();
  s.started = obs_started_;
  s.draining = final_publish || stop_requested();
  s.start_unix_s = start_unix_s_;
  s.uptime_s = uptime_s;
  s.ring_capacity = config_.use_ring ? ring_.capacity() : 0;
  s.ring_occupancy = config_.use_ring ? ring_.size_approx() : 0;
  s.checkpoint_seq = ckpt_seq_;
  s.checkpoint_wall_unix_s = last_ckpt_wall_unix_s_;
  obs_hub_->publish_status(s);

  // Demand-paged: the suspect-table copy (filter + sort over every open
  // entry) only happens when a /loops reader asked since the last refresh,
  // rate-capped to every kLoopsPublishEvery epochs. The demand flag is
  // consumed only at cadence boundaries so a request landing mid-cadence is
  // not lost.
  if (final_publish ||
      (epochs_ % kLoopsPublishEvery == 0 && obs_hub_->take_loops_demand())) {
    auto entries = detector_.suspect_entries(kLoopsPublishMax + 1);
    const bool truncated = entries.size() > kLoopsPublishMax;
    if (truncated) entries.pop_back();
    obs_hub_->publish_loops(std::move(entries), last_packet_ts_, epochs_,
                            truncated);
  }
}

void Daemon::export_failpoint_trips() {
  if (!registry_) return;
  for (const auto& [name, trips] :
       util::FailpointRegistry::instance().trip_counts()) {
    auto& reported = failpoint_reported_[name];
    if (trips > reported) {
      telemetry::inc(
          telemetry::get_counter(registry_, "rloop_failpoint_trips_total",
                                 {{"name", name}},
                                 "Failpoint trips by site name"),
          trips - reported);
      reported = trips;
    }
  }
}

void Daemon::producer_loop() {
  net::TraceRecord rec;
  while (!stop_.load(std::memory_order_relaxed) && source_->next(rec)) {
    pushed_.fetch_add(1, std::memory_order_relaxed);
    telemetry::inc(m_pushed_);
    // Injected push failure takes the drop path (ledger stays exact).
    const bool injected_fail = RLOOP_FAILPOINT("daemon.ring.push");
    if (!injected_fail && ring_.try_push(rec)) continue;
    if (!injected_fail && config_.back_pressure == BackPressure::block &&
        !force_drop_.load(std::memory_order_relaxed)) {
      bool delivered = false;
      while (!stop_.load(std::memory_order_relaxed) &&
             !force_drop_.load(std::memory_order_relaxed)) {
        if (ring_.try_push(rec)) {
          delivered = true;
          break;
        }
        std::this_thread::yield();
      }
      if (delivered) continue;
    }
    // drop_newest, or a blocked push abandoned by request_stop().
    dropped_.fetch_add(1, std::memory_order_relaxed);
    telemetry::inc(m_dropped_);
  }
  producer_done_.store(true, std::memory_order_release);
}

void Daemon::consume_batch(const net::TraceRecord* batch, std::size_t n) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    try {
      detector_.on_packet(batch[i].ts, batch[i].bytes());
    } catch (const std::bad_alloc&) {
      // The packet is lost but the daemon survives; memory pressure is not
      // something wider batching fixes, so jump straight to sampling.
      const DegradeTier tier = governor_.on_alloc_failure();
      if (config_.governor_enabled) apply_tier(tier);
    }
  }
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  consumed_.fetch_add(n, std::memory_order_relaxed);
  telemetry::inc(m_consumed_, n);
  ++epochs_;
  telemetry::inc(m_epochs_);
  last_packet_ts_ = batch[n - 1].ts;
  telemetry::observe(m_epoch_ns_, static_cast<double>(ns));
  telemetry::observe(m_batch_size_, static_cast<double>(n));
  telemetry::set(m_ring_occupancy_,
                 static_cast<std::int64_t>(ring_.size_approx()));
  // Surface the detector's budget evictions under the daemon namespace.
  const std::uint64_t evicted = detector_.evicted();
  if (evicted > evicted_reported_) {
    telemetry::inc(m_evicted_, evicted - evicted_reported_);
    evicted_reported_ = evicted;
  }
}

void Daemon::apply_reload() {
  ++reloads_;
  telemetry::inc(m_reloads_);
  if (config_.config_file.empty()) return;
  // Injected reload failure == unreadable file: running config unchanged.
  if (RLOOP_FAILPOINT("daemon.config.reload")) return;
  std::string error;
  if (apply_config_file(config_.config_file, config_, &error)) {
    detector_.update_config(config_.streaming);
  }
  // A bad file leaves the running config untouched; the reload counter
  // still ticks so the operator sees the signal arrived.
}

void Daemon::finish_epoch(telemetry::PeriodicExporter* exporter) {
  if (reload_.exchange(false, std::memory_order_relaxed)) apply_reload();
  if (config_.use_ring && config_.governor_enabled) {
    apply_tier(governor_.on_epoch(ring_.size_approx(), ring_.capacity()));
  }
  maybe_checkpoint(/*force=*/false);
  // Per-epoch anchor for fault injection; a no-op on trip, the
  // crash-recovery soak arms it with kill@nth:N to die here.
  if (RLOOP_FAILPOINT("daemon.epoch")) {
  }
  // Injected overload: same escalation path as a detection bad_alloc
  // (straight to sample_suspects), used to prove /readyz goes 503.
  if (RLOOP_FAILPOINT("daemon.governor.degrade")) {
    const DegradeTier tier = governor_.on_alloc_failure();
    if (config_.governor_enabled) apply_tier(tier);
  }
  export_failpoint_trips();
  publish_observability(/*final_publish=*/false);
  if (exporter) exporter->pump(last_packet_ts_);
}

DaemonStats Daemon::run() {
  std::unique_ptr<telemetry::PeriodicExporter> exporter;
  if (registry_ && config_.stats_interval > 0 && stats_sink_) {
    exporter = std::make_unique<telemetry::PeriodicExporter>(
        registry_, config_.stats_interval,
        config_.stats_format == StatsFormat::json
            ? telemetry::PeriodicExporter::Format::json
            : telemetry::PeriodicExporter::Format::prometheus,
        stats_sink_);
  }

  // Restore (ctor) is done and consumption is about to begin: readiness
  // flips here, before the first epoch, so a healthy-but-idle daemon still
  // answers /readyz 200.
  obs_started_ = true;
  publish_observability(/*final_publish=*/false);

  // Sized for the widest tier-2 batch so widening never reallocates.
  std::vector<net::TraceRecord> batch(
      config_.governor_enabled
          ? config_.batch_size *
                std::max<std::size_t>(1, config_.governor.batch_multiplier)
          : config_.batch_size);
  if (config_.use_ring) {
    std::thread producer([this] { producer_loop(); });
    for (;;) {
      std::size_t n = ring_.pop_batch(
          batch.data(), std::min(batch.size(), batch_limit_));
      if (n == 0) {
        if (producer_done_.load(std::memory_order_acquire)) {
          n = ring_.pop_batch(batch.data(), batch.size());
          if (n == 0) break;
        } else {
          std::this_thread::yield();
          continue;
        }
      }
      if (RLOOP_FAILPOINT("daemon.ring.pop")) {
        // Batch discarded unseen; count it consumed so the ledger balances.
        consumed_.fetch_add(n, std::memory_order_relaxed);
        telemetry::inc(m_consumed_, n);
        continue;
      }
      consume_batch(batch.data(), n);
      finish_epoch(exporter.get());
    }
    producer.join();
  } else {
    // Inline mode: one thread, no ring — batches are read straight from the
    // source. Differential oracle and the 1-thread bench point.
    net::TraceRecord rec;
    bool more = true;
    while (more && !stop_.load(std::memory_order_relaxed)) {
      std::size_t n = 0;
      while (n < batch_limit_ && (more = source_->next(rec))) {
        batch[n++] = rec;
      }
      if (n == 0) break;
      pushed_.fetch_add(n, std::memory_order_relaxed);
      telemetry::inc(m_pushed_, n);
      consume_batch(batch.data(), n);
      finish_epoch(exporter.get());
    }
    producer_done_.store(true, std::memory_order_release);
  }
  // Final snapshot on drain: a graceful stop + restart resumes exactly
  // where this run left off.
  maybe_checkpoint(/*force=*/true);
  export_failpoint_trips();
  publish_observability(/*final_publish=*/true);
  if (exporter && last_packet_ts_ > 0) exporter->flush(last_packet_ts_);
  return stats();
}

DaemonStats Daemon::stats() const {
  DaemonStats s;
  s.source = source_ ? source_->name() : "";
  s.pushed = pushed_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.consumed = consumed_.load(std::memory_order_relaxed);
  s.epochs = epochs_;
  s.reloads = reloads_;
  s.alerts = alerts_;
  s.reordered = detector_.reordered();
  s.reorder_dropped = detector_.reorder_dropped();
  s.evicted = detector_.evicted();
  s.open_entries = detector_.open_entries();
  s.peak_open_entries = detector_.peak_open_entries();
  s.last_packet_ts = last_packet_ts_;
  s.checkpoints_written = checkpoints_written_;
  s.checkpoint_failures = checkpoint_failures_;
  s.restored_seq = restore_info_.restored ? restore_info_.seq : 0;
  s.degrade_tier =
      config_.governor_enabled ? static_cast<int>(governor_.tier()) : 0;
  s.degrade_escalations = governor_.escalations();
  s.degrade_deescalations = governor_.deescalations();
  s.alloc_failures = governor_.alloc_failures();
  s.sampled_dropped = detector_.sampled_dropped();
  return s;
}

}  // namespace rloop::daemon
