#include "daemon/observability.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "telemetry/exporter.h"
#include "telemetry/quantiles.h"

namespace rloop::daemon {
namespace {

void field(std::string& out, const char* key, std::uint64_t v, bool first = false) {
  if (!first) out += ',';
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(v);
}

void field_str(std::string& out, const char* key, const std::string& v) {
  out += ",\"";
  out += key;
  out += "\":\"";
  out += telemetry::json_escape(v);
  out += '"';
}

telemetry::MetricSnapshot make_counter(std::string name, std::string help,
                                       double value) {
  telemetry::MetricSnapshot s;
  s.name = std::move(name);
  s.help = std::move(help);
  s.type = telemetry::MetricType::counter;
  s.value = value;
  return s;
}

}  // namespace

std::string StatusSnapshot::to_json(std::uint64_t now_unix_s) const {
  std::string out = "{";
  out += "\"started\":";
  out += started ? "true" : "false";
  out += ",\"draining\":";
  out += draining ? "true" : "false";
  out += ",\"ready\":";
  const bool ready =
      started && !draining &&
      stats.degrade_tier <= static_cast<int>(DegradeTier::widen_batching);
  out += ready ? "true" : "false";
  field_str(out, "source", stats.source);
  field(out, "start_unix_s", start_unix_s);
  out += ",\"uptime_s\":";
  {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", uptime_s);
    out += buf;
  }
  out += ",\"ring\":{";
  field(out, "pushed", stats.pushed, /*first=*/true);
  field(out, "consumed", stats.consumed);
  field(out, "dropped", stats.dropped);
  field(out, "capacity", ring_capacity);
  field(out, "occupancy", ring_occupancy);
  out += "}";
  out += ",\"detector\":{";
  field(out, "epochs", stats.epochs, /*first=*/true);
  field(out, "alerts", stats.alerts);
  field(out, "reordered", stats.reordered);
  field(out, "reorder_dropped", stats.reorder_dropped);
  field(out, "evicted", stats.evicted);
  field(out, "sampled_dropped", stats.sampled_dropped);
  field(out, "open_entries", stats.open_entries);
  field(out, "peak_open_entries", stats.peak_open_entries);
  field(out, "last_packet_ts_ns",
        static_cast<std::uint64_t>(stats.last_packet_ts));
  out += "}";
  field(out, "config_epoch", stats.reloads);
  out += ",\"checkpoint\":{";
  field(out, "seq", checkpoint_seq, /*first=*/true);
  field(out, "written", stats.checkpoints_written);
  field(out, "failures", stats.checkpoint_failures);
  field(out, "restored_seq", stats.restored_seq);
  if (checkpoint_wall_unix_s != 0 && now_unix_s >= checkpoint_wall_unix_s) {
    field(out, "age_s", now_unix_s - checkpoint_wall_unix_s);
  } else {
    out += ",\"age_s\":null";
  }
  out += "}";
  out += ",\"governor\":{";
  field(out, "tier", static_cast<std::uint64_t>(stats.degrade_tier),
        /*first=*/true);
  field_str(out, "tier_name",
            degrade_tier_name(static_cast<DegradeTier>(stats.degrade_tier)));
  field(out, "escalations", stats.degrade_escalations);
  field(out, "deescalations", stats.degrade_deescalations);
  field(out, "alloc_failures", stats.alloc_failures);
  out += "}}";
  return out;
}

// --- EventStream -----------------------------------------------------------

bool EventStream::pop(std::string& out, int timeout_ms) {
  if (q_.try_pop(out)) return true;
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
               [&] { return closed_ || !q_.empty(); });
  return q_.try_pop(out);
}

bool EventStream::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

// --- ObservabilityHub ------------------------------------------------------

void ObservabilityHub::publish_status(const StatusSnapshot& status) {
  std::unique_lock<std::mutex> lock(status_mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    status_skipped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  status_ = status;
  status_valid_ = true;
}

void ObservabilityHub::publish_loops(std::vector<SuspectEntry> entries,
                                     net::TimeNs as_of, std::uint64_t epoch,
                                     bool truncated) {
  std::unique_lock<std::mutex> lock(loops_mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    loops_skipped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  loops_.entries = std::move(entries);
  loops_.as_of = as_of;
  loops_.epoch = epoch;
  loops_.truncated = truncated;
  loops_valid_ = true;
}

void ObservabilityHub::publish_event(const std::string& line) {
  // subs_mu_ also serializes publishers, which keeps each ring
  // single-producer.
  std::lock_guard<std::mutex> subs_lock(subs_mu_);
  for (const auto& sub : subs_) {
    if (!sub->q_.try_push(line)) {
      sub->dropped_.fetch_add(1, std::memory_order_relaxed);
      events_dropped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Taking mu_ orders the push before the reader's next predicate check,
    // so the notify cannot be lost. If the reader holds mu_ the publisher
    // does not wait: a notify lost then only delays the line to the
    // reader's next timed wake-up.
    { std::unique_lock<std::mutex> lock(sub->mu_, std::try_to_lock); }
    sub->cv_.notify_one();
  }
}

bool ObservabilityHub::read_status(StatusSnapshot& out) const {
  std::lock_guard<std::mutex> lock(status_mu_);
  if (!status_valid_) return false;
  out = status_;
  return true;
}

bool ObservabilityHub::read_loops(LoopsView& out) const {
  std::lock_guard<std::mutex> lock(loops_mu_);
  if (!loops_valid_) return false;
  out = loops_;
  return true;
}

std::shared_ptr<EventStream> ObservabilityHub::subscribe(
    std::size_t queue_capacity) {
  auto stream = std::make_shared<EventStream>(queue_capacity);
  std::lock_guard<std::mutex> lock(subs_mu_);
  subs_.push_back(stream);
  return stream;
}

void ObservabilityHub::unsubscribe(const std::shared_ptr<EventStream>& stream) {
  std::lock_guard<std::mutex> lock(subs_mu_);
  subs_.erase(std::remove(subs_.begin(), subs_.end(), stream), subs_.end());
}

void ObservabilityHub::close_events() {
  std::lock_guard<std::mutex> subs_lock(subs_mu_);
  for (const auto& sub : subs_) {
    {
      std::lock_guard<std::mutex> lock(sub->mu_);
      sub->closed_ = true;
    }
    sub->cv_.notify_all();
  }
}

// --- ObservabilityServer ---------------------------------------------------

ObservabilityServer::ObservabilityServer(ObservabilityHub* hub,
                                         telemetry::Registry* registry)
    : ObservabilityServer(hub, registry, Options{}) {}

ObservabilityServer::ObservabilityServer(ObservabilityHub* hub,
                                         telemetry::Registry* registry,
                                         Options options)
    : hub_(hub),
      registry_(registry),
      options_(options),
      server_(options.http) {
  server_.handle("/metrics",
                 [this](const net::HttpRequest& r) { return metrics(r); });
  server_.handle("/healthz",
                 [this](const net::HttpRequest& r) { return healthz(r); });
  server_.handle("/readyz",
                 [this](const net::HttpRequest& r) { return readyz(r); });
  server_.handle("/status",
                 [this](const net::HttpRequest& r) { return status(r); });
  server_.handle("/loops",
                 [this](const net::HttpRequest& r) { return loops(r); });
  server_.handle_stream(
      "/events", "text/event-stream",
      [this](const net::HttpRequest& r, net::HttpStreamWriter& w) {
        events(r, w);
      });
}

ObservabilityServer::~ObservabilityServer() { stop(); }

bool ObservabilityServer::start(std::string* error) {
  return server_.start(error);
}

void ObservabilityServer::stop() {
  // Wake SSE handlers first so their connection threads exit promptly when
  // the server joins them.
  hub_->close_events();
  server_.stop();
}

net::HttpResponse ObservabilityServer::metrics(const net::HttpRequest&) {
  std::vector<telemetry::MetricSnapshot> snaps;
  if (registry_ != nullptr) snaps = registry_->snapshot();
  auto summaries = telemetry::summarize_histograms(snaps);
  for (auto& s : summaries) snaps.push_back(std::move(s));

  // The HTTP plane's own health, visible to the scraper scraping it.
  snaps.push_back(make_counter(
      "rloop_http_requests_total", "HTTP requests served by the "
      "observability server",
      static_cast<double>(server_.requests_served())));
  snaps.push_back(make_counter(
      "rloop_http_rejected_overload_total",
      "Connections rejected by the max_connections cap",
      static_cast<double>(server_.rejected_overload())));
  snaps.push_back(make_counter(
      "rloop_http_bad_requests_total",
      "Requests dropped as oversized, malformed, or timed out",
      static_cast<double>(server_.bad_requests())));
  snaps.push_back(make_counter(
      "rloop_obs_status_publish_skipped_total",
      "Status publishes skipped because a reader held the hub lock",
      static_cast<double>(hub_->status_publishes_skipped())));
  snaps.push_back(make_counter(
      "rloop_obs_loops_publish_skipped_total",
      "Loop-table publishes skipped because a reader held the hub lock",
      static_cast<double>(hub_->loops_publishes_skipped())));
  snaps.push_back(make_counter(
      "rloop_obs_events_dropped_total",
      "Alert events dropped by full or contended subscriber queues",
      static_cast<double>(hub_->events_dropped_total())));

  std::stable_sort(snaps.begin(), snaps.end(),
                   [](const telemetry::MetricSnapshot& a,
                      const telemetry::MetricSnapshot& b) {
                     if (a.name != b.name) return a.name < b.name;
                     return a.labels < b.labels;
                   });

  net::HttpResponse resp;
  resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
  resp.body = telemetry::to_prometheus(snaps);
  return resp;
}

net::HttpResponse ObservabilityServer::healthz(const net::HttpRequest&) {
  net::HttpResponse resp;
  resp.body = "ok\n";
  return resp;
}

net::HttpResponse ObservabilityServer::readyz(const net::HttpRequest&) {
  net::HttpResponse resp;
  StatusSnapshot status;
  if (!hub_->read_status(status) || !status.started) {
    resp.status = 503;
    resp.body = "not ready: starting\n";
    return resp;
  }
  if (status.draining) {
    resp.status = 503;
    resp.body = "not ready: draining\n";
    return resp;
  }
  if (status.stats.degrade_tier >
      static_cast<int>(DegradeTier::widen_batching)) {
    resp.status = 503;
    resp.body = std::string("not ready: degraded (") +
                degrade_tier_name(
                    static_cast<DegradeTier>(status.stats.degrade_tier)) +
                ")\n";
    return resp;
  }
  resp.body = "ready\n";
  return resp;
}

net::HttpResponse ObservabilityServer::status(const net::HttpRequest&) {
  net::HttpResponse resp;
  resp.content_type = "application/json; charset=utf-8";
  StatusSnapshot status;
  if (!hub_->read_status(status)) {
    resp.status = 503;
    resp.body = "{\"started\":false,\"error\":\"no status published yet\"}";
    return resp;
  }
  const auto now_unix_s = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  resp.body = status.to_json(now_unix_s);
  return resp;
}

net::HttpResponse ObservabilityServer::loops(const net::HttpRequest&) {
  net::HttpResponse resp;
  resp.content_type = "application/json; charset=utf-8";
  // Ask the daemon to refresh the view at an upcoming epoch boundary; this
  // response serves whatever was published last (at most one cadence stale
  // for a repeat scraper).
  hub_->request_loops();
  ObservabilityHub::LoopsView view;
  if (!hub_->read_loops(view)) {
    resp.body = "{\"as_of_ns\":0,\"epoch\":0,\"truncated\":false,"
                "\"entries\":[]}";
    return resp;
  }
  std::string out = "{";
  field(out, "as_of_ns", static_cast<std::uint64_t>(view.as_of),
        /*first=*/true);
  field(out, "epoch", view.epoch);
  out += ",\"truncated\":";
  out += view.truncated ? "true" : "false";
  out += ",\"entries\":[";
  bool first = true;
  for (const auto& e : view.entries) {
    if (!first) out += ',';
    first = false;
    out += "{\"prefix\":\"";
    out += telemetry::json_escape(e.prefix24.to_string());
    out += '"';
    field(out, "first_ts_ns", static_cast<std::uint64_t>(e.first_ts));
    field(out, "last_ts_ns", static_cast<std::uint64_t>(e.last_ts));
    field(out, "replicas", e.replicas);
    out += ",\"ttl_delta\":";
    out += std::to_string(e.ttl_delta);
    out += "}";
  }
  out += "]}";
  resp.body = std::move(out);
  return resp;
}

void ObservabilityServer::events(const net::HttpRequest&,
                                 net::HttpStreamWriter& writer) {
  auto sub = hub_->subscribe(options_.events_queue_capacity);
  // A comment line up front so clients see bytes immediately (curl flushes,
  // proxies learn the stream is alive).
  if (!writer.write(": rloopd event stream\n\n")) {
    hub_->unsubscribe(sub);
    return;
  }
  std::string line;
  for (;;) {
    // Once the client has gone, the server is stopping or the hub is
    // closed, wait for nothing new but still write every queued line.
    const bool open = writer.alive();
    if (!sub->pop(line, /*timeout_ms=*/open ? 250 : 0)) {
      if (!open || sub->closed()) break;
      continue;
    }
    std::string frame = "data: " + line + "\n\n";
    const std::uint64_t dropped = sub->take_dropped();
    if (dropped != 0) {
      frame += "event: dropped\ndata: " + std::to_string(dropped) + "\n\n";
    }
    if (!writer.write(frame)) break;
  }
  hub_->unsubscribe(sub);
}

}  // namespace rloop::daemon
