#include "net/http_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace rloop::net {

namespace {

using Clock = std::chrono::steady_clock;

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

// send() the whole buffer; MSG_NOSIGNAL so a vanished client surfaces as
// EPIPE instead of killing the process. Interrupted sends retry.
bool send_all(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool send_all(int fd, const std::string& s) {
  return send_all(fd, s.data(), s.size());
}

// Half-close, then discard the client's unread bytes until its FIN (or a
// bounded deadline). close()ing a socket whose receive buffer still holds
// data makes the kernel answer with RST, and an RST racing the just-sent
// response destroys it before the client reads it — the over-cap 503 path
// always has the client's whole request unread, so a bare close there loses
// the 503 intermittently. FIN first, drain, and the eventual close() is
// quiet. A stop()-side shutdown(SHUT_RD) ends the drain early via EOF.
void fin_and_drain(int fd, int timeout_ms = 500) {
  ::shutdown(fd, SHUT_WR);
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  char sink[1024];
  for (;;) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                               deadline - Clock::now())
                               .count();
    if (remaining <= 0) break;
    struct pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(remaining));
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) break;
    const ssize_t n = ::recv(fd, sink, sizeof(sink), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
  }
}

std::string render_response(const HttpResponse& r, bool head_only) {
  std::string out = "HTTP/1.1 " + std::to_string(r.status) + " " +
                    status_text(r.status) + "\r\n";
  out += "Content-Type: " + r.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(r.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  if (!head_only) out += r.body;
  return out;
}

// Reads from `fd` until a blank line ends the header block, `max_bytes` is
// exceeded, or `deadline` passes. Returns the accumulated bytes; *status
// receives 0 on success or the HTTP error to answer with.
std::string read_header(int fd, std::size_t max_bytes,
                        Clock::time_point deadline, int* status) {
  std::string buf;
  char chunk[1024];
  *status = 0;
  for (;;) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                               deadline - Clock::now())
                               .count();
    if (remaining <= 0) {
      *status = 408;
      return buf;
    }
    struct pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(remaining));
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) {
      *status = 408;
      return buf;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *status = 400;  // client closed before finishing the header
      return buf;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
    if (buf.find("\r\n\r\n") != std::string::npos ||
        buf.find("\n\n") != std::string::npos) {
      return buf;
    }
    if (buf.size() > max_bytes) {
      *status = 431;
      return buf;
    }
  }
}

// First request line -> (method, path, query). False on malformed input.
bool parse_request_line(const std::string& header, HttpRequest& out) {
  const std::size_t eol = header.find_first_of("\r\n");
  const std::string line =
      header.substr(0, eol == std::string::npos ? header.size() : eol);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos || sp1 == 0) return false;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos || sp2 == sp1 + 1) return false;
  const std::string version = line.substr(sp2 + 1);
  if (version.rfind("HTTP/1.", 0) != 0) return false;
  out.method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t q = target.find('?');
  if (q != std::string::npos) {
    out.query = target.substr(q + 1);
    target.resize(q);
  }
  if (target.empty() || target[0] != '/') return false;
  out.path = std::move(target);
  return true;
}

class FdStreamWriter : public HttpStreamWriter {
 public:
  FdStreamWriter(int fd, const std::atomic<bool>& stopping)
      : fd_(fd), stopping_(stopping) {}

  // Not gated on stopping_: a handler told to stop still writes what it
  // holds, and stop() leaves the write side open until it returns.
  bool write(const std::string& data) override {
    if (!writable_) return false;
    writable_ = send_all(fd_, data);
    return writable_;
  }

  bool alive() const override {
    if (stopping_.load(std::memory_order_relaxed)) return false;
    if (!writable_ || !peer_open_) return false;
    // A disconnected SSE client shows up as readable-with-EOF (or error):
    // the server never expects request bytes mid-stream, so anything
    // readable here means the peer is gone or misbehaving — either way the
    // stream ends. This only ends the wait for new data: the EOF may also
    // be stop()'s own read-side shutdown, which must not cancel the
    // handler's last writes.
    struct pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 0);
    if (pr > 0 && (pfd.revents & (POLLIN | POLLERR | POLLHUP))) {
      char probe[64];
      const ssize_t n = ::recv(fd_, probe, sizeof(probe), MSG_DONTWAIT);
      if (n == 0) {
        peer_open_ = false;  // clean EOF: the peer closed
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        peer_open_ = false;
      }
    }
    return peer_open_;
  }

 private:
  int fd_;
  const std::atomic<bool>& stopping_;
  bool writable_ = true;
  mutable bool peer_open_ = true;
};

}  // namespace

HttpServer::HttpServer(Options options) : options_(std::move(options)) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::handle(const std::string& path, Handler handler) {
  Route route;
  route.handler = std::move(handler);
  routes_[path] = std::move(route);
}

void HttpServer::handle_stream(const std::string& path,
                               std::string content_type,
                               StreamHandler handler) {
  Route route;
  route.stream = std::move(handler);
  route.stream_content_type = std::move(content_type);
  routes_[path] = std::move(route);
}

bool HttpServer::start(std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error) *error = "http: " + what + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    errno = EINVAL;
    return fail("bad bind address '" + options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail("bind " + options_.bind_address + ":" +
                std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 64) < 0) return fail("listen");

  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void HttpServer::stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  if (listen_fd_ >= 0) {
    // shutdown() unblocks a blocked accept(); close() follows in the accept
    // thread's epilogue via this path being the only closer.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // End in-flight connections: a read-side shutdown unblocks header reads,
  // and stopping_ turns stream writers' alive() false. The write side stays
  // open so a stream handler can write the frames it already holds before
  // it returns; a client that stops reading is bounded by SO_SNDTIMEO. The
  // threads then exit and are joined. fds stay open until after the join
  // so the numbers cannot be reused under a racing thread.
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(connections_);
  }
  for (auto& c : conns) {
    if (c->fd >= 0) ::shutdown(c->fd, SHUT_RD);
  }
  for (auto& c : conns) {
    if (c->thread.joinable()) c->thread.join();
    if (c->fd >= 0) ::close(c->fd);
  }
  running_.store(false, std::memory_order_release);
}

void HttpServer::reap_finished_threads() {
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      if ((*it)->fd >= 0) ::close((*it)->fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void HttpServer::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (stop()) or unrecoverable
    }
    reap_finished_threads();
    // Only connections still being served count against the cap: one that
    // has answered and is waiting in fin_and_drain for the client's FIN
    // holds no handler, and under CPU contention those can pile up.
    std::size_t active = 0;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      for (const auto& c : connections_) {
        if (!c->served.load(std::memory_order_acquire)) ++active;
      }
    }
    if (active >= static_cast<std::size_t>(options_.max_connections)) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      HttpResponse overload;
      overload.status = 503;
      overload.body = "too many connections\n";
      send_all(fd, render_response(overload, false));
      fin_and_drain(fd);
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      connections_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] {
      serve_connection(raw->fd);
      raw->served.store(true, std::memory_order_release);
      // FIN now (every response is Connection: close and clients read to
      // EOF), then drain leftover request bytes so the close at reap/stop
      // time cannot turn into an RST. The fd itself is closed only at
      // reap/stop so the number is not reused while this entry is tracked.
      fin_and_drain(raw->fd);
      raw->done.store(true, std::memory_order_release);
    });
  }
}

void HttpServer::serve_connection(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Bound response writes too: a client that stops reading cannot pin a
  // connection thread past this.
  struct timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.header_deadline_ms);
  int err = 0;
  const std::string header =
      read_header(fd, options_.max_request_bytes, deadline, &err);

  HttpRequest request;
  if (err == 0 && !parse_request_line(header, request)) err = 400;
  if (err != 0) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    HttpResponse bad;
    bad.status = err;
    bad.body = std::string(status_text(err)) + "\n";
    send_all(fd, render_response(bad, false));
    return;
  }

  requests_.fetch_add(1, std::memory_order_relaxed);
  const bool head_only = request.method == "HEAD";
  if (request.method != "GET" && request.method != "HEAD") {
    HttpResponse resp;
    resp.status = 405;
    resp.body = "only GET and HEAD are supported\n";
    send_all(fd, render_response(resp, false));
    return;
  }

  const auto it = routes_.find(request.path);
  if (it == routes_.end()) {
    HttpResponse resp;
    resp.status = 404;
    resp.body = "not found\n";
    send_all(fd, render_response(resp, head_only));
    return;
  }

  const Route& route = it->second;
  if (route.stream) {
    const std::string head = "HTTP/1.1 200 OK\r\nContent-Type: " +
                             route.stream_content_type +
                             "\r\nCache-Control: no-cache\r\n"
                             "Connection: close\r\n\r\n";
    if (!send_all(fd, head) || head_only) return;
    FdStreamWriter writer(fd, stopping_);
    route.stream(request, writer);
    return;
  }

  HttpResponse resp = route.handler(request);
  send_all(fd, render_response(resp, head_only));
}

bool http_get(int port, const std::string& path, int* status,
              std::string* body, std::string* error, int timeout_ms,
              const std::string& host) {
  auto fail = [&](int fd, const std::string& what) {
    if (error) *error = "http_get " + path + ": " + what;
    if (fd >= 0) ::close(fd);
    return false;
  };
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return fail(fd, std::strerror(errno));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return fail(fd, "bad host '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return fail(fd, std::string("connect: ") + std::strerror(errno));
  }

  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  if (!send_all(fd, request)) return fail(fd, "send failed");

  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::string response;
  char chunk[4096];
  for (;;) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now())
            .count();
    if (remaining <= 0) return fail(fd, "timeout");
    struct pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(remaining));
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) return fail(fd, "timeout");
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return fail(fd, std::string("recv: ") + std::strerror(errno));
    if (n == 0) break;  // server closed: response complete
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  if (response.rfind("HTTP/1.", 0) != 0) {
    if (error) *error = "http_get " + path + ": malformed status line";
    return false;
  }
  const std::size_t sp = response.find(' ');
  if (sp == std::string::npos || sp + 4 > response.size()) {
    if (error) *error = "http_get " + path + ": malformed status line";
    return false;
  }
  if (status) *status = std::atoi(response.c_str() + sp + 1);
  std::size_t body_start = response.find("\r\n\r\n");
  if (body_start == std::string::npos) {
    body_start = response.find("\n\n");
    if (body_start != std::string::npos) body_start += 2;
  } else {
    body_start += 4;
  }
  if (body) {
    *body = body_start == std::string::npos ? "" : response.substr(body_start);
  }
  return true;
}

}  // namespace rloop::net
