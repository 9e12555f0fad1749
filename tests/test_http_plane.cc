// The daemon's observability plane end to end: HttpServer protocol behavior
// (including hostile input), ObservabilityHub publish/read semantics, the
// six rloopd endpoints against an in-process daemon on the golden trace, and
// the /events SSE stream delivering the pinned golden alert set.
#include "daemon/observability.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "daemon/daemon.h"
#include "json_lite.h"
#include "net/http_server.h"
#include "net/pcap.h"
#include "net/pcap_mmap.h"
#include "prom_lite.h"
#include "telemetry/build_info.h"
#include "telemetry/exporter.h"
#include "telemetry/registry.h"
#include "util/failpoint.h"

namespace rloop::daemon {
namespace {

using net::HttpRequest;
using net::HttpResponse;
using net::HttpServer;
using net::http_get;
using rloop::testing::is_valid_json;
using rloop::testing::is_valid_prometheus;

std::string golden_path(const std::string& name) {
  return std::string(RLOOP_GOLDEN_DIR) + "/" + name;
}

// Raw TCP client for hostile-input tests: sends arbitrary bytes, reads
// whatever comes back.
class RawClient {
 public:
  ~RawClient() { close_fd(); }

  bool connect_to(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool send_str(const std::string& s) {
    std::size_t off = 0;
    while (off < s.size()) {
      const ssize_t n =
          ::send(fd_, s.data() + off, s.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  // Appends received bytes to `acc` until it contains `needle`, EOF, or the
  // timeout. True when the needle arrived.
  bool read_until(const std::string& needle, std::string* acc,
                  int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    char chunk[4096];
    while (acc->find(needle) == std::string::npos) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (remaining <= 0) return false;
      struct pollfd pfd{fd_, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, static_cast<int>(remaining));
      if (pr < 0 && errno == EINTR) continue;
      if (pr <= 0) return false;
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;  // EOF before the needle
      acc->append(chunk, static_cast<std::size_t>(n));
    }
    return true;
  }

  // Reads to EOF (server closes every connection) within the timeout.
  std::string read_to_eof(int timeout_ms) {
    std::string acc;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    char chunk[4096];
    for (;;) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (remaining <= 0) break;
      struct pollfd pfd{fd_, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, static_cast<int>(remaining));
      if (pr < 0 && errno == EINTR) continue;
      if (pr <= 0) break;
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      acc.append(chunk, static_cast<std::size_t>(n));
    }
    return acc;
  }

  void close_fd() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

HttpServer::Options ephemeral() {
  HttpServer::Options o;
  o.port = 0;
  return o;
}

// --- HttpServer protocol -----------------------------------------------------

TEST(HttpServer, ServesRegisteredHandlerWithQuery) {
  HttpServer server(ephemeral());
  server.handle("/hello", [](const HttpRequest& r) {
    HttpResponse resp;
    resp.body = "hi " + r.query;
    return resp;
  });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_GT(server.port(), 0);

  int status = 0;
  std::string body;
  ASSERT_TRUE(http_get(server.port(), "/hello?a=b", &status, &body, &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "hi a=b");
  EXPECT_EQ(server.requests_served(), 1u);

  ASSERT_TRUE(http_get(server.port(), "/nope", &status, &body, &error));
  EXPECT_EQ(status, 404);
  server.stop();
}

TEST(HttpServer, RejectsNonGetMethods) {
  HttpServer server(ephemeral());
  server.handle("/x", [](const HttpRequest&) { return HttpResponse{}; });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  RawClient client;
  ASSERT_TRUE(client.connect_to(server.port()));
  ASSERT_TRUE(client.send_str("POST /x HTTP/1.1\r\nHost: a\r\n\r\n"));
  const std::string resp = client.read_to_eof(3000);
  EXPECT_NE(resp.find("405"), std::string::npos) << resp;
  server.stop();
}

TEST(HttpServer, RejectsMalformedRequestLine) {
  HttpServer server(ephemeral());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  for (const char* bad : {"GARBAGE\r\n\r\n", "GET noslash HTTP/1.1\r\n\r\n",
                          "GET / SPDY/3\r\n\r\n"}) {
    RawClient client;
    ASSERT_TRUE(client.connect_to(server.port()));
    ASSERT_TRUE(client.send_str(bad));
    const std::string resp = client.read_to_eof(3000);
    EXPECT_NE(resp.find("400"), std::string::npos) << bad << " -> " << resp;
  }
  EXPECT_GE(server.bad_requests(), 3u);
  server.stop();
}

TEST(HttpServer, OversizedRequestGets431) {
  HttpServer::Options options = ephemeral();
  options.max_request_bytes = 1024;
  HttpServer server(options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  RawClient client;
  ASSERT_TRUE(client.connect_to(server.port()));
  // 8 KiB of header with no terminating blank line.
  std::string huge = "GET / HTTP/1.1\r\n";
  while (huge.size() < 8192) huge += "X-Pad: aaaaaaaaaaaaaaaaaaaaaaaa\r\n";
  ASSERT_TRUE(client.send_str(huge));
  const std::string resp = client.read_to_eof(3000);
  EXPECT_NE(resp.find("431"), std::string::npos) << resp;
  EXPECT_GE(server.bad_requests(), 1u);
  server.stop();
}

TEST(HttpServer, SlowlorisIsCutOffAtTheHeaderDeadline) {
  HttpServer::Options options = ephemeral();
  options.header_deadline_ms = 300;
  HttpServer server(options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  RawClient client;
  ASSERT_TRUE(client.connect_to(server.port()));
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.send_str("GET / HT"));  // ...and never finish
  const std::string resp = client.read_to_eof(10000);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_NE(resp.find("408"), std::string::npos) << resp;
  // Bounded: deadline (300ms) plus generous scheduling slack, far below the
  // no-deadline forever.
  EXPECT_LT(elapsed_ms, 5000);
  server.stop();
}

TEST(HttpServer, ConnectionCapAnswers503) {
  HttpServer::Options options = ephemeral();
  options.max_connections = 1;
  HttpServer server(options);
  std::atomic<bool> release{false};
  server.handle_stream("/hang", "text/plain",
                       [&](const HttpRequest&, net::HttpStreamWriter& w) {
                         while (w.alive() &&
                                !release.load(std::memory_order_acquire)) {
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(5));
                         }
                       });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Occupy the single slot and wait until its response header arrives, so
  // the connection is definitely registered.
  RawClient holder;
  ASSERT_TRUE(holder.connect_to(server.port()));
  ASSERT_TRUE(holder.send_str("GET /hang HTTP/1.1\r\nHost: a\r\n\r\n"));
  std::string acc;
  ASSERT_TRUE(holder.read_until("200 OK", &acc, 3000));

  int status = 0;
  std::string body;
  ASSERT_TRUE(http_get(server.port(), "/hang", &status, &body, &error))
      << error;
  EXPECT_EQ(status, 503);
  EXPECT_GE(server.rejected_overload(), 1u);

  release.store(true, std::memory_order_release);
  server.stop();
}

TEST(HttpServer, ConcurrentScrapersAllSucceed) {
  telemetry::Registry registry;
  registry.counter("rloop_scrape_total", {}, "scrapes")->inc();
  HttpServer server(ephemeral());
  server.handle("/metrics", [&](const HttpRequest&) {
    HttpResponse resp;
    resp.body = telemetry::to_prometheus(registry.snapshot());
    return resp;
  });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  constexpr int kThreads = 8;
  constexpr int kRequests = 20;
  std::atomic<int> ok{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < kThreads; ++t) {
    scrapers.emplace_back([&] {
      for (int i = 0; i < kRequests; ++i) {
        int status = 0;
        std::string body;
        std::string err;
        if (http_get(server.port(), "/metrics", &status, &body, &err) &&
            status == 200 && !body.empty()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : scrapers) t.join();
  EXPECT_EQ(ok.load(), kThreads * kRequests);
  EXPECT_GE(server.requests_served(),
            static_cast<std::uint64_t>(kThreads) * kRequests);
  server.stop();
}

// --- ObservabilityHub --------------------------------------------------------

TEST(ObservabilityHub, EventStreamDropsNewestWhenFull) {
  ObservabilityHub hub;
  auto sub = hub.subscribe(/*queue_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    hub.publish_event("alert " + std::to_string(i));
  }
  // Drop-newest: the oldest 4 lines survive.
  std::string line;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sub->pop(line, 100)) << i;
    EXPECT_EQ(line, "alert " + std::to_string(i));
  }
  EXPECT_FALSE(sub->pop(line, 10));
  EXPECT_EQ(sub->take_dropped(), 6u);
  EXPECT_EQ(sub->take_dropped(), 0u);  // reading resets
  EXPECT_EQ(hub.events_dropped_total(), 6u);

  hub.close_events();
  EXPECT_TRUE(sub->closed());
  hub.unsubscribe(sub);
}

TEST(ObservabilityHub, StatusAndLoopsReadBackWhatWasPublished) {
  ObservabilityHub hub;
  StatusSnapshot status;
  EXPECT_FALSE(hub.read_status(status));

  status.started = true;
  status.stats.pushed = 10;
  status.stats.consumed = 8;
  status.stats.dropped = 2;
  status.stats.degrade_tier = 3;
  hub.publish_status(status);
  StatusSnapshot got;
  ASSERT_TRUE(hub.read_status(got));
  EXPECT_TRUE(got.started);
  EXPECT_EQ(got.stats.pushed, got.stats.consumed + got.stats.dropped);
  EXPECT_EQ(got.stats.degrade_tier, 3);

  ObservabilityHub::LoopsView view;
  EXPECT_FALSE(hub.read_loops(view));
  ObservabilityHub::SuspectEntry entry;
  entry.prefix24 = net::Prefix::parse("10.1.2.0/24").value();
  entry.replicas = 5;
  entry.ttl_delta = 3;
  hub.publish_loops({entry}, /*as_of=*/42, /*epoch=*/7, /*truncated=*/true);
  ASSERT_TRUE(hub.read_loops(view));
  ASSERT_EQ(view.entries.size(), 1u);
  EXPECT_EQ(view.entries[0].prefix24.to_string(), "10.1.2.0/24");
  EXPECT_TRUE(view.truncated);
  EXPECT_EQ(view.epoch, 7u);
}

// --- ObservabilityServer endpoints (hub-driven, no daemon) -------------------

TEST(ObservabilityServer, ReadyzTracksLifecycleAndGovernorTier) {
  ObservabilityHub hub;
  telemetry::Registry registry;
  ObservabilityServer server(&hub, &registry);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  int status = 0;
  std::string body;
  // No status published yet: starting.
  ASSERT_TRUE(http_get(server.port(), "/readyz", &status, &body, &error));
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("starting"), std::string::npos);
  // /healthz is alive regardless.
  ASSERT_TRUE(http_get(server.port(), "/healthz", &status, &body, &error));
  EXPECT_EQ(status, 200);
  // /status mirrors "nothing yet" as 503 + JSON.
  ASSERT_TRUE(http_get(server.port(), "/status", &status, &body, &error));
  EXPECT_EQ(status, 503);
  EXPECT_TRUE(is_valid_json(body)) << body;

  StatusSnapshot snap;
  snap.started = true;
  hub.publish_status(snap);
  ASSERT_TRUE(http_get(server.port(), "/readyz", &status, &body, &error));
  EXPECT_EQ(status, 200);

  // Degraded past widen_batching: not ready, reason names the tier.
  snap.stats.degrade_tier = static_cast<int>(DegradeTier::sample_suspects);
  hub.publish_status(snap);
  ASSERT_TRUE(http_get(server.port(), "/readyz", &status, &body, &error));
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("sample_suspects"), std::string::npos) << body;

  // widen_batching itself still counts as ready (shedding, not broken).
  snap.stats.degrade_tier = static_cast<int>(DegradeTier::widen_batching);
  hub.publish_status(snap);
  ASSERT_TRUE(http_get(server.port(), "/readyz", &status, &body, &error));
  EXPECT_EQ(status, 200);

  snap.draining = true;
  hub.publish_status(snap);
  ASSERT_TRUE(http_get(server.port(), "/readyz", &status, &body, &error));
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("draining"), std::string::npos);
  server.stop();
}

TEST(ObservabilityServer, LoopsAndStatusAreStrictJson) {
  ObservabilityHub hub;
  ObservabilityServer server(&hub, nullptr);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  int status = 0;
  std::string body;
  // Empty loops view before any publish.
  ASSERT_TRUE(http_get(server.port(), "/loops", &status, &body, &error));
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(is_valid_json(body)) << body;

  ObservabilityHub::SuspectEntry entry;
  entry.prefix24 = net::Prefix::parse("203.0.113.0/24").value();
  entry.first_ts = 1;
  entry.last_ts = 2;
  entry.replicas = 4;
  entry.ttl_delta = -2;
  hub.publish_loops({entry}, 99, 3, false);

  StatusSnapshot snap;
  snap.started = true;
  snap.stats.source = "golden \"quoted\"";  // exercises JSON escaping
  snap.stats.pushed = 5;
  snap.stats.consumed = 5;
  snap.checkpoint_wall_unix_s = 0;  // age must render as null
  hub.publish_status(snap);

  ASSERT_TRUE(http_get(server.port(), "/loops", &status, &body, &error));
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(is_valid_json(body)) << body;
  EXPECT_NE(body.find("203.0.113.0/24"), std::string::npos);
  EXPECT_NE(body.find("\"ttl_delta\":-2"), std::string::npos);

  ASSERT_TRUE(http_get(server.port(), "/status", &status, &body, &error));
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(is_valid_json(body)) << body;
  EXPECT_NE(body.find("\"ready\":true"), std::string::npos);
  EXPECT_NE(body.find("\"age_s\":null"), std::string::npos);
  server.stop();
}

// --- full integration: daemon + observability plane --------------------------

struct DaemonFixture {
  net::Trace trace;
  telemetry::Registry registry;
  ObservabilityHub hub;
  std::unique_ptr<ObservabilityServer> server;

  explicit DaemonFixture() {
    trace = net::read_pcap_fast(golden_path("golden_trace.pcap"));
    telemetry::register_build_info(&registry);
    server = std::make_unique<ObservabilityServer>(&hub, &registry,
                                                   ObservabilityServer::Options{});
    std::string error;
    if (!server->start(&error)) {
      ADD_FAILURE() << error;
    }
  }
};

TEST(ObservabilityIntegration, EndpointsServeLiveDaemonState) {
  DaemonFixture fx;
  ASSERT_GT(fx.trace.size(), 0u);

  DaemonConfig config;
  Daemon d(config, std::make_unique<ReplaySource>(fx.trace, "golden", 0),
           nullptr, &fx.registry);
  d.attach_observability(&fx.hub);
  const DaemonStats stats = d.run();
  ASSERT_TRUE(stats.invariant_ok());

  int status = 0;
  std::string body, error;

  // /status: strict JSON carrying the final ledger; drained -> not ready.
  ASSERT_TRUE(http_get(fx.server->port(), "/status", &status, &body, &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(is_valid_json(body)) << body;
  EXPECT_NE(body.find("\"pushed\":" + std::to_string(stats.pushed)),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\"draining\":true"), std::string::npos);
  EXPECT_NE(body.find("\"alerts\":" + std::to_string(stats.alerts)),
            std::string::npos);

  ASSERT_TRUE(http_get(fx.server->port(), "/readyz", &status, &body, &error));
  EXPECT_EQ(status, 503);

  // /metrics: strictly conformant exposition including daemon families,
  // derived quantile summaries, build info, and the plane's own counters.
  ASSERT_TRUE(http_get(fx.server->port(), "/metrics", &status, &body, &error));
  EXPECT_EQ(status, 200);
  std::string prom_error;
  EXPECT_TRUE(is_valid_prometheus(body, &prom_error)) << prom_error;
  EXPECT_NE(body.find("rloop_daemon_ring_pushed_total"), std::string::npos);
  EXPECT_NE(body.find("rloop_daemon_epoch_latency_ns_quantiles"),
            std::string::npos);
  EXPECT_NE(body.find("rloop_build_info"), std::string::npos);
  EXPECT_NE(body.find("rloop_daemon_uptime_seconds"), std::string::npos);
  EXPECT_NE(body.find("rloop_http_requests_total"), std::string::npos);

  // /loops: strict JSON with the drain-time suspect table.
  ASSERT_TRUE(http_get(fx.server->port(), "/loops", &status, &body, &error));
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(is_valid_json(body)) << body;
  EXPECT_NE(body.find("\"entries\""), std::string::npos);

  fx.server->stop();
}

// The /events SSE stream delivers exactly the pinned golden alert lines
// (tests/golden/golden_streaming_alerts.txt), in order, to a subscriber that
// was connected before the daemon started.
TEST(ObservabilityIntegration, EventsStreamDeliversPinnedGoldenAlerts) {
  std::ifstream pin(golden_path("golden_streaming_alerts.txt"));
  ASSERT_TRUE(pin.good());
  std::vector<std::string> expected;
  for (std::string line; std::getline(pin, line);) {
    if (!line.empty()) expected.push_back(line);
  }
  ASSERT_FALSE(expected.empty());

  DaemonFixture fx;
  RawClient sse;
  ASSERT_TRUE(sse.connect_to(fx.server->port()));
  ASSERT_TRUE(sse.send_str("GET /events HTTP/1.1\r\nHost: a\r\n\r\n"));
  std::string acc;
  // Once the handshake comment arrives the subscription is registered, so
  // alerts raised from here on cannot be missed.
  ASSERT_TRUE(sse.read_until(": rloopd event stream", &acc, 5000));

  DaemonConfig config;
  Daemon d(config, std::make_unique<ReplaySource>(fx.trace, "golden", 0),
           [&](const core::LoopAlert& alert) {
             char line[160];
             std::snprintf(line, sizeof(line),
                           "[%9.3fs] LOOP suspected on %-18s ttl_delta=%d "
                           "replicas=%llu (stream began %.1f ms earlier)",
                           net::to_seconds(alert.raised_at),
                           alert.prefix24.to_string().c_str(),
                           alert.ttl_delta,
                           static_cast<unsigned long long>(alert.replicas),
                           net::to_millis(alert.raised_at - alert.first_seen));
             fx.hub.publish_event(line);
           },
           &fx.registry);
  d.attach_observability(&fx.hub);
  std::thread runner([&] { (void)d.run(); });
  runner.join();

  // Drain the stream: stop() closes the event hub and the connection, so
  // the client reads the remaining frames and then EOF.
  std::thread stopper([&] { fx.server->stop(); });
  acc += sse.read_to_eof(10000);
  stopper.join();

  std::vector<std::string> got;
  std::size_t pos = 0;
  while ((pos = acc.find("data: ", pos)) != std::string::npos) {
    pos += 6;
    const std::size_t eol = acc.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    got.push_back(acc.substr(pos, eol - pos));
  }
  EXPECT_EQ(got, expected);
}

// /readyz must flip to 503 when the governor degrades past widen_batching —
// proven by injecting overload through the daemon.governor.degrade failpoint
// while the daemon replays the golden trace paced.
TEST(ObservabilityIntegration, ReadyzFlipsUnderInjectedGovernorDegrade) {
#if !defined(RLOOP_FAILPOINTS)
  GTEST_SKIP() << "failpoint sites compiled out (-DRLOOP_FAILPOINTS=OFF)";
#else
  DaemonFixture fx;
  std::string arm_error;
  ASSERT_TRUE(util::FailpointRegistry::instance().arm(
      "daemon.governor.degrade", "trip", &arm_error))
      << arm_error;

  DaemonConfig config;
  config.governor_enabled = true;
  // Paced replay: the trace spans seconds of wall time, leaving the poll
  // loop below plenty of epochs to observe the degraded tier.
  Daemon d(config,
           std::make_unique<ReplaySource>(fx.trace, "golden", /*speed=*/4.0),
           nullptr, &fx.registry);
  d.attach_observability(&fx.hub);
  std::thread runner([&] { (void)d.run(); });

  bool saw_degraded = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    std::string body, error;
    if (http_get(fx.server->port(), "/readyz", &status, &body, &error) &&
        status == 503 && body.find("degraded") != std::string::npos) {
      saw_degraded = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  d.request_stop();
  runner.join();
  util::FailpointRegistry::instance().disarm_all();
  EXPECT_TRUE(saw_degraded) << "governor degrade never surfaced on /readyz";
  fx.server->stop();
#endif
}

}  // namespace
}  // namespace rloop::daemon
