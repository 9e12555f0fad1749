// The daemon's live observability plane: epoch-boundary snapshots published
// by the consumer thread, served over an embedded HTTP server.
//
// The contract that shapes everything here: the HTTP side may NEVER block
// the detection hot path. The consumer thread publishes through
// ObservabilityHub with try_lock — if a scraper holds the lock, the publish
// is skipped (counted) and retried next epoch; the consumer never waits.
// Scrapers read under the full lock and therefore always see a consistent
// snapshot (the ledger invariant holds inside any one /status response).
// Alert fan-out to /events clients uses bounded per-client SPSC rings with
// drop-newest accounting, same policy as the ingest ring.
//
// Endpoint catalog (mounted by ObservabilityServer, served by
// net::HttpServer on its own threads):
//
//   /metrics   Prometheus text: the full telemetry registry, plus derived
//              <histogram>_quantiles summaries (p50/p95/p99,
//              telemetry/quantiles.h), rloop_build_info, and the HTTP
//              plane's own counters
//   /healthz   200 while the process serves requests (liveness)
//   /readyz    200 only when the daemon has started consuming, is not
//              draining, and the governor tier is at or below
//              widen_batching; 503 with a reason otherwise (readiness)
//   /status    one JSON object: uptime, ring ledger, governor tier and
//              transition counts, checkpoint seq/age, config epoch
//   /loops     currently-open suspect entries (>= 2 replicas) as JSON,
//              copied from the detector at the last publish boundary
//   /events    text/event-stream of alert lines as they are raised
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/streaming_detector.h"
#include "daemon/governor.h"
#include "net/http_server.h"
#include "net/time.h"
#include "telemetry/registry.h"
#include "util/spsc_ring.h"

namespace rloop::daemon {

// Everything /status and /readyz need, copied from the daemon at epoch
// boundaries. Consistent within one publish (single writer, whole-struct
// copy under the hub lock).
struct StatusSnapshot {
  bool started = false;   // consumer loop entered (restore already decided)
  bool draining = false;  // stop requested or source exhausted
  std::string source;
  std::uint64_t start_unix_s = 0;
  double uptime_s = 0;

  // Ring ledger (pushed == consumed + dropped at rest).
  std::uint64_t pushed = 0;
  std::uint64_t consumed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t ring_capacity = 0;
  std::uint64_t ring_occupancy = 0;

  std::uint64_t epochs = 0;
  std::uint64_t alerts = 0;
  std::uint64_t reordered = 0;
  std::uint64_t reorder_dropped = 0;
  std::uint64_t evicted = 0;
  std::uint64_t sampled_dropped = 0;
  std::uint64_t open_entries = 0;
  std::uint64_t peak_open_entries = 0;
  net::TimeNs last_packet_ts = 0;

  // Config epoch: SIGHUP reloads applied since start (0 = boot config).
  std::uint64_t config_epoch = 0;

  // Checkpointing.
  std::uint64_t checkpoint_seq = 0;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_failures = 0;
  std::uint64_t checkpoint_wall_unix_s = 0;  // newest snapshot; 0 = none yet
  std::uint64_t restored_seq = 0;            // 0 = cold start

  // Governor.
  int degrade_tier = 0;
  std::uint64_t degrade_escalations = 0;
  std::uint64_t degrade_deescalations = 0;
  std::uint64_t alloc_failures = 0;

  // One JSON object (the /status payload). `now_unix_s` turns
  // checkpoint_wall_unix_s into a checkpoint_age_s field.
  std::string to_json(std::uint64_t now_unix_s) const;
};

// One /events subscriber: a bounded FIFO of alert lines. The publisher
// (consumer thread) pushes into a lock-free SPSC ring, dropping the newest
// line only when the ring is full; the SSE connection thread pops with a
// timed wait. The capacity is rounded up to a power of two.
class EventStream {
 public:
  explicit EventStream(std::size_t capacity)
      : q_(std::bit_ceil(std::max<std::size_t>(capacity, 1))) {}

  // Blocks up to `timeout_ms` for a line; false on timeout or closed+empty.
  bool pop(std::string& out, int timeout_ms);

  bool closed() const;
  // Lines dropped because the queue was full or the publisher could not
  // take the lock; reading resets the count (the SSE writer reports it).
  std::uint64_t take_dropped() {
    return dropped_.exchange(0, std::memory_order_relaxed);
  }

 private:
  friend class ObservabilityHub;

  util::SpscRing<std::string> q_;
  mutable std::mutex mu_;  // guards closed_ and the wait on cv_, not q_
  std::condition_variable cv_;
  bool closed_ = false;
  std::atomic<std::uint64_t> dropped_{0};
};

// The shared state between the daemon (single publisher) and the HTTP
// threads (any number of readers). All publish_* methods are wait-free for
// the caller: they try_lock and skip on contention.
class ObservabilityHub {
 public:
  using SuspectEntry = core::StreamingDetector::SuspectEntry;

  // --- publisher side (daemon consumer thread) -----------------------------
  void publish_status(const StatusSnapshot& status);
  void publish_loops(std::vector<SuspectEntry> entries, net::TimeNs as_of,
                     std::uint64_t epoch, bool truncated);
  // Alert fan-out. Takes the subscriber-list lock (alerts are rare events,
  // not the per-packet path); each subscriber's ring takes a lock-free push.
  void publish_event(const std::string& line);

  // --- reader side (HTTP threads) ------------------------------------------
  // False until the first publish.
  bool read_status(StatusSnapshot& out) const;
  struct LoopsView {
    std::vector<SuspectEntry> entries;
    net::TimeNs as_of = 0;
    std::uint64_t epoch = 0;
    bool truncated = false;
  };
  bool read_loops(LoopsView& out) const;

  // The suspect table is demand-paged: copying + sorting it costs the
  // consumer real time, so /loops raises this flag and the daemon refreshes
  // the view at a later epoch boundary only when someone actually asked.
  // Starts raised so the boot publish primes an (empty) view.
  void request_loops() { loops_demand_.store(true, std::memory_order_relaxed); }
  // Consumes the demand; called by the publisher at cadence boundaries.
  bool take_loops_demand() {
    return loops_demand_.exchange(false, std::memory_order_relaxed);
  }

  std::shared_ptr<EventStream> subscribe(std::size_t queue_capacity);
  void unsubscribe(const std::shared_ptr<EventStream>& stream);
  // Wakes every subscriber with closed=true (daemon drain / server stop).
  void close_events();

  // Publishes skipped because a reader held the lock (visibility into the
  // wait-free trade; exported on /metrics).
  std::uint64_t status_publishes_skipped() const {
    return status_skipped_.load(std::memory_order_relaxed);
  }
  std::uint64_t loops_publishes_skipped() const {
    return loops_skipped_.load(std::memory_order_relaxed);
  }
  std::uint64_t events_dropped_total() const {
    return events_dropped_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex status_mu_;
  StatusSnapshot status_;
  bool status_valid_ = false;

  mutable std::mutex loops_mu_;
  LoopsView loops_;
  bool loops_valid_ = false;

  std::mutex subs_mu_;
  std::vector<std::shared_ptr<EventStream>> subs_;

  std::atomic<std::uint64_t> status_skipped_{0};
  std::atomic<std::uint64_t> loops_skipped_{0};
  std::atomic<std::uint64_t> events_dropped_{0};
  std::atomic<bool> loops_demand_{true};
};

// Mounts the endpoint catalog over a hub + registry and owns the HTTP
// server. The registry may be null (endpoints still serve; /metrics is
// empty). Start order in rloopd: hub -> server.start() -> daemon run, so
// /healthz and /readyz answer (503 "starting") during a slow restore.
class ObservabilityServer {
 public:
  struct Options {
    net::HttpServer::Options http;
    std::size_t events_queue_capacity = 256;  // alert lines per SSE client
  };

  // The default-argument form would need Options' implicit default ctor
  // inside the still-incomplete enclosing class (its NSDMIs are deferred to
  // the complete-class context), which gcc rejects — hence the overload.
  ObservabilityServer(ObservabilityHub* hub, telemetry::Registry* registry);
  ObservabilityServer(ObservabilityHub* hub, telemetry::Registry* registry,
                      Options options);
  ~ObservabilityServer();

  bool start(std::string* error);
  void stop();

  int port() const { return server_.port(); }
  const net::HttpServer& http() const { return server_; }

 private:
  net::HttpResponse metrics(const net::HttpRequest& request);
  net::HttpResponse healthz(const net::HttpRequest& request);
  net::HttpResponse readyz(const net::HttpRequest& request);
  net::HttpResponse status(const net::HttpRequest& request);
  net::HttpResponse loops(const net::HttpRequest& request);
  void events(const net::HttpRequest& request, net::HttpStreamWriter& writer);

  ObservabilityHub* hub_;
  telemetry::Registry* registry_;
  Options options_;
  net::HttpServer server_;
};

}  // namespace rloop::daemon
