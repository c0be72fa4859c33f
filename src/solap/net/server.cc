#include "solap/net/server.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "solap/common/failpoint.h"
#include "solap/common/timer.h"

namespace solap {
namespace net {

namespace {

// How long a worker waits for the peer to acknowledge a server-initiated
// close before closing anyway (see Connection::CloseGracefully).
constexpr int kLingerTimeoutMs = 500;

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(std::string("fcntl: ") + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

HttpServer::HttpServer(Router router, HttpServerOptions options,
                       MetricsRegistry* metrics,
                       std::function<void()> drain_hook)
    : router_(std::move(router)),
      options_(std::move(options)),
      drain_hook_(std::move(drain_hook)) {
  if (metrics != nullptr) {
    accepted_ = metrics->counter("net_connections_accepted");
    rejected_ = metrics->counter("net_connections_rejected");
    closed_ = metrics->counter("net_connections_closed");
    requests_ = metrics->counter("net_requests");
    parse_errors_ = metrics->counter("net_parse_errors");
    bytes_read_ = metrics->counter("net_bytes_read");
    bytes_written_ = metrics->counter("net_bytes_written");
    responses_2xx_ = metrics->counter("net_responses_2xx");
    responses_4xx_ = metrics->counter("net_responses_4xx");
    responses_5xx_ = metrics->counter("net_responses_5xx");
    shed_429_ = metrics->counter("net_shed_429");
    unavailable_503_ = metrics->counter("net_unavailable_503");
    active_gauge_ = metrics->gauge("net_active_connections");
    request_ms_ = metrics->histogram("net_request_ms");
  }
}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address '" +
                                   options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Status::Internal(std::string("bind ") + options_.bind_address +
                                 ":" + std::to_string(options_.port) + ": " +
                                 std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 128) < 0) {
    Status st = Status::Internal(std::string("listen: ") +
                                 std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  SOLAP_RETURN_NOT_OK(SetNonBlocking(listen_fd_));

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];

  acceptor_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void HttpServer::Drain() {
  if (draining_.exchange(true)) return;
  if (drain_hook_) drain_hook_();
}

void HttpServer::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopped_.exchange(true)) return;
  Drain();
  {
    // Under queue_mu_: a worker between its wait predicate and blocking
    // would otherwise miss the notify_all below and never wake.
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_.store(true, std::memory_order_release);
  }
  // Closing the write end makes the read end permanently readable
  // (POLLHUP): one shot wakes the acceptor and every worker poll, now and
  // for any poll they enter later.
  if (wake_write_fd_ >= 0) {
    ::close(wake_write_fd_);
    wake_write_fd_ = -1;
  }
  queue_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // Connections accepted but never picked up by a worker.
  for (int fd : conn_queue_) ::close(fd);
  conn_queue_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (wake_read_fd_ >= 0) {
    ::close(wake_read_fd_);
    wake_read_fd_ = -1;
  }
}

void HttpServer::RejectConnection(int fd, int status,
                                  const std::string& reason) {
  HttpResponse resp = TextResponse(status, reason + "\n");
  resp.keep_alive = false;
  if (status == 503) {
    resp.headers.emplace_back("Retry-After", "1");
    if (unavailable_503_ != nullptr) unavailable_503_->Inc();
  }
  std::string wire = SerializeResponse(resp);
  // Best effort: the peer may already be gone; either way the connection
  // ends here. Drain only what already arrived (timeout 0) — the acceptor
  // must never park on a rejected peer.
  (void)::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
  LingeringClose(fd, /*timeout_ms=*/0);
  if (rejected_ != nullptr) rejected_->Inc();
}

void HttpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    struct pollfd fds[2] = {{listen_fd_, POLLIN, 0},
                            {wake_read_fd_, POLLIN, 0}};
    int rc;
    do {
      rc = ::poll(fds, 2, -1);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) break;
    if (fds[1].revents != 0) break;  // Stop() fired the self-pipe
    if (fds[0].revents == 0) continue;

    // Drain the whole accept backlog this wakeup.
    while (true) {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
        break;  // transient accept error; retry on next poll
      }
      // Chaos hook: an armed net.accept failpoint models accept-time
      // resource exhaustion (fd limits, aborted handshakes).
      if (Status injected = SOLAP_FAILPOINT_CHECK("net.accept");
          !injected.ok()) {
        ::close(fd);
        if (rejected_ != nullptr) rejected_->Inc();
        continue;
      }
      // A draining server still accepts: the worker answers each request
      // with 503 and hangs up with a lingering close, which cannot race
      // the peer's first request the way an accept-time close can.
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      // Queue under the lock, but write the 503 rejection outside it —
      // a slow peer must not stall the accept path.
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        if (conn_queue_.size() < options_.max_queued_connections) {
          conn_queue_.push_back(fd);
          if (accepted_ != nullptr) accepted_->Inc();
          fd = -1;
        }
      }
      if (fd >= 0) {
        RejectConnection(fd, 503, "server at connection capacity");
      } else {
        queue_cv_.notify_one();
      }
    }
  }
}

void HttpServer::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] {
        return !conn_queue_.empty() ||
               stopping_.load(std::memory_order_acquire);
      });
      if (conn_queue_.empty()) return;  // stopping and nothing left
      fd = conn_queue_.front();
      conn_queue_.pop_front();
    }
    active_.fetch_add(1, std::memory_order_relaxed);
    if (active_gauge_ != nullptr) {
      active_gauge_->Set(active_.load(std::memory_order_relaxed));
    }
    HandleConnection(fd);
    active_.fetch_sub(1, std::memory_order_relaxed);
    if (active_gauge_ != nullptr) {
      active_gauge_->Set(active_.load(std::memory_order_relaxed));
    }
    if (closed_ != nullptr) closed_->Inc();
  }
}

void HttpServer::HandleConnection(int fd) {
  Connection conn(fd, options_.limits, bytes_read_, bytes_written_);
  std::string out;
  bool open = true;
  bool responded_close = false;  // we wrote a final response and hang up
  while (open) {
    // Drain every complete pipelined request before touching the socket
    // again; their responses batch into one write.
    HttpRequest req;
    switch (conn.parser().Next(&req)) {
      case HttpParser::Outcome::kRequest:
        open = HandleRequest(req, &out);
        responded_close = !open;
        continue;
      case HttpParser::Outcome::kError: {
        if (parse_errors_ != nullptr) parse_errors_->Inc();
        HttpResponse resp =
            TextResponse(conn.parser().error_status(), conn.parser().error() +
                                                           "\n");
        resp.keep_alive = false;
        CountResponse(resp.status);
        out += SerializeResponse(resp);
        open = false;
        responded_close = true;
        continue;
      }
      case HttpParser::Outcome::kNeedMore:
        break;
    }
    if (!out.empty()) {
      if (!conn.WriteAll(out).ok()) break;
      out.clear();
    }
    if (stopping_.load(std::memory_order_acquire)) break;

    std::string err;
    switch (conn.ReadSome(options_.idle_timeout_ms, wake_read_fd_, &err)) {
      case Connection::ReadOutcome::kData:
        break;
      case Connection::ReadOutcome::kWakeup:
        // Stop() in progress: abandon the idle connection. (Drain alone
        // never fires the pipe — idle keep-alive connections stay parked
        // until they speak, then get their 503.)
        open = false;
        break;
      case Connection::ReadOutcome::kTimeout:
      case Connection::ReadOutcome::kClosed:
      case Connection::ReadOutcome::kError:
        open = false;
        break;
    }
  }
  if (!out.empty()) (void)conn.WriteAll(out);
  if (responded_close) {
    // When the server hangs up first, the peer may not have read the final
    // response yet, and there may be input we never consumed (a 413's
    // body, pipelined requests behind a close). A plain close would RST
    // both away; linger until the peer closes, the grace period ends, or
    // Stop() fires the wake pipe.
    conn.CloseGracefully(kLingerTimeoutMs, wake_read_fd_);
  }
}

bool HttpServer::HandleRequest(const HttpRequest& req, std::string* out) {
  if (requests_ != nullptr) requests_->Inc();
  Timer timer;
  HttpResponse resp;
  if (draining_.load(std::memory_order_acquire)) {
    resp = TextResponse(503, "server is draining\n");
    resp.headers.emplace_back("Retry-After", "1");
    resp.keep_alive = false;
  } else {
    resp = router_.Dispatch(req);
  }
  if (!req.keep_alive) resp.keep_alive = false;
  if (request_ms_ != nullptr) request_ms_->ObserveMs(timer.ElapsedMs());
  CountResponse(resp.status);
  *out += SerializeResponse(resp);
  return resp.keep_alive;
}

void HttpServer::CountResponse(int status) {
  if (responses_2xx_ == nullptr) return;
  if (status < 300) {
    responses_2xx_->Inc();
  } else if (status < 500) {
    responses_4xx_->Inc();
  } else {
    responses_5xx_->Inc();
  }
  if (status == 429) shed_429_->Inc();
  if (status == 503) unavailable_503_->Inc();
}

}  // namespace net
}  // namespace solap
