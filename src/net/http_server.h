// A small, dependency-free embedded HTTP/1.1 server for the daemon's
// observability plane.
//
// Deliberately minimal: GET/HEAD only, no keep-alive (every response closes
// the connection), no TLS, no chunked requests. What it does do, it does
// defensively, because the listener shares a process with a detector that
// must not die:
//
//   * bounded request size — header bytes beyond `max_request_bytes` get a
//     431 and a closed socket, never an unbounded buffer;
//   * a hard header deadline — a slowloris client dripping one byte per
//     second is cut off `header_deadline_ms` after connect, enforced with
//     poll() so a stalled read cannot pin a thread forever;
//   * a connection cap — an accept while `max_connections` connections
//     are still being served answers 503 immediately instead of spawning
//     unbounded threads (a served connection's thread lingers at most
//     500 ms for the client's FIN and no longer counts);
//   * MSG_NOSIGNAL writes — a scraper that disconnects mid-response must
//     not SIGPIPE the daemon.
//
// Threading model: one blocking accept thread plus one short-lived thread
// per connection (request -> response -> close). That is the simplest model
// that lets a long-lived SSE stream (`handle_stream`) coexist with
// concurrent /metrics scrapes, and at an observability plane's request
// rates (single-digit Hz) thread churn is noise. Handlers run on
// connection threads — they must only touch thread-safe state (the
// telemetry registry, the daemon's snapshot hub).
//
// stop() closes the listen socket, shuts down every open connection, and
// joins all threads; it is safe to call from the main thread during a
// SIGTERM drain while clients are mid-request.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace rloop::net {

struct HttpRequest {
  std::string method;  // "GET" / "HEAD"
  std::string path;    // "/metrics" (query string stripped)
  std::string query;   // "a=b&c=d" (without the '?'), may be empty
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

// Write side of a streaming (SSE) connection, handed to a StreamHandler.
// alive() returns false once the client disconnected or the server is
// stopping: the handler must then stop waiting for new data, write what it
// already holds and return promptly. write() returns false only when the
// bytes could not be sent.
class HttpStreamWriter {
 public:
  virtual ~HttpStreamWriter() = default;
  virtual bool write(const std::string& data) = 0;
  virtual bool alive() const = 0;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;
  // Long-lived connection handler (e.g. an SSE event stream). The response
  // header (200, `content_type`) is written before the handler runs; the
  // connection closes when the handler returns.
  using StreamHandler =
      std::function<void(const HttpRequest&, HttpStreamWriter&)>;

  struct Options {
    std::string bind_address = "127.0.0.1";  // observability stays local by
                                             // default; bind 0.0.0.0 on your
                                             // own authority
    int port = 0;                       // 0 = ephemeral, see port()
    int max_connections = 16;           // being served; beyond this -> 503
    std::size_t max_request_bytes = 8192;  // request line + headers
    int header_deadline_ms = 2000;      // connect -> complete header
  };

  explicit HttpServer(Options options);
  ~HttpServer();  // calls stop()

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Exact-path handlers (no prefix matching). Register before start().
  void handle(const std::string& path, Handler handler);
  void handle_stream(const std::string& path, std::string content_type,
                     StreamHandler handler);

  // Binds, listens, and starts the accept thread. False + *error on any
  // socket failure (port in use, permission).
  bool start(std::string* error);

  // Idempotent. Closes the listener, aborts in-flight connections, joins
  // every thread. After stop() the server cannot be restarted.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  // Actual bound port (resolves an ephemeral request); 0 before start().
  int port() const { return port_; }

  std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }
  // Connections rejected by the max_connections cap (503).
  std::uint64_t rejected_overload() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  // Requests dropped for protocol reasons (oversized, malformed, timeout).
  std::uint64_t bad_requests() const {
    return bad_requests_.load(std::memory_order_relaxed);
  }

 private:
  struct Route {
    Handler handler;                  // exactly one of handler/stream set
    StreamHandler stream;
    std::string stream_content_type;
  };

  void accept_loop();
  void serve_connection(int fd);
  void reap_finished_threads();

  Options options_;
  std::map<std::string, Route> routes_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  std::mutex conn_mu_;
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> served{false};  // handler returned; draining
    std::atomic<bool> done{false};    // drained; ready to reap
  };
  std::vector<std::unique_ptr<Connection>> connections_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> bad_requests_{0};
};

// Minimal blocking HTTP GET against 127.0.0.1:`port` (the test/bench/smoke
// client; also usable against any plain-HTTP host). Fills `status`, headers
// are discarded, `body` receives the full response body (the connection is
// read to EOF — the server side always closes). Returns false on connect/
// timeout/protocol failure with a message in *error.
bool http_get(int port, const std::string& path, int* status,
              std::string* body, std::string* error,
              int timeout_ms = 5000, const std::string& host = "127.0.0.1");

}  // namespace rloop::net
