#include "serve/listener.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/text.hpp"
#include "serve/sockets.hpp"

namespace dsf {

LineEndpoint::LineEndpoint(LineEndpointOptions options)
    : options_(std::move(options)) {}

LineEndpoint::~LineEndpoint() {
  // Backstop only: derived destructors already ran Shutdown(), so handlers
  // (which dispatch into the derived class) are gone by the time the base
  // is torn down.
  Shutdown();
  if (shutdown_pipe_[0] >= 0) ::close(shutdown_pipe_[0]);
  if (shutdown_pipe_[1] >= 0) ::close(shutdown_pipe_[1]);
}

void LineEndpoint::Shutdown() noexcept {
  RequestShutdown();
  if (started_ && !drained_) Wait();
}

void LineEndpoint::Start() {
  if (started_) throw std::logic_error("LineEndpoint::Start called twice");
  if (::pipe(shutdown_pipe_) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }

  // Non-blocking listen socket: poll() readiness is only a hint (a pending
  // peer can RST away before accept runs), and a blocking accept() in that
  // window would stall the loop — and the shutdown path — until the next
  // client shows up. Accepted sockets do not inherit the flag.
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("invalid host address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("cannot listen on " + options_.host + ":" +
                             std::to_string(options_.port) + ": " + what);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = static_cast<int>(ntohs(bound.sin_port));

  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void LineEndpoint::RequestShutdown() noexcept {
  if (shutdown_pipe_[1] >= 0) {
    const char byte = 'q';
    // Best effort; a full pipe already means a shutdown is pending.
    (void)!::write(shutdown_pipe_[1], &byte, 1);
  }
}

void LineEndpoint::AcceptLoop() {
  while (true) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {shutdown_pipe_[0], POLLIN, 0};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // drain requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;  // transient (EAGAIN, ECONNABORTED, EMFILE, ...)
    // Bound both directions: a client that requests a large response and
    // never reads it, or one that stalls mid-line, must not pin its
    // handler — that would also pin the drain, which waits for handlers.
    SetSendTimeout(fd, options_.send_timeout_ms);
    SetRecvTimeout(fd, options_.recv_timeout_ms);
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      conn_fds_.push_back(fd);
      ++active_handlers_;
    }
    try {
      std::thread([this, fd] { HandleConnection(fd); }).detach();
    } catch (const std::system_error&) {
      // Thread exhaustion: undo the registration or the drain would wait
      // for a handler that never started.
      std::lock_guard<std::mutex> lock(conn_mutex_);
      std::erase(conn_fds_, fd);
      ::close(fd);
      --active_handlers_;
    }
  }
}

void LineEndpoint::HandleConnection(int fd) {
  std::string buffer;
  char chunk[16384];
  bool closed = false;
  while (!closed) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    // EAGAIN here is the SO_RCVTIMEO deadline: a client stalled mid-stream
    // loses its connection (a fresh request can reconnect immediately).
    if (n <= 0) break;  // peer closed, stalled out, or SHUT_RD during drain
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    std::size_t nl;
    while ((nl = buffer.find('\n', start)) != std::string::npos) {
      const std::string_view line = StripCr(
          std::string_view(buffer).substr(start, nl - start));
      start = nl + 1;
      if (line.empty()) continue;
      std::string response = HandleLine(line);
      response.push_back('\n');
      if (fault_.Enabled()) {
        const FaultAction action = fault_.OnRequest();
        switch (action.kind) {
          case FaultAction::Kind::kExit:
            // A crash, not a drain: no reply, no handler accounting, the
            // peer sees EOF / ECONNRESET on every open connection.
            std::_Exit(3);
          case FaultAction::Kind::kDrop:
            closed = true;
            break;
          case FaultAction::Kind::kTruncate:
            SendAll(fd, response.data(), response.size() / 2);
            closed = true;
            break;
          case FaultAction::Kind::kDelay:
            std::this_thread::sleep_for(
                std::chrono::milliseconds(action.delay_ms));
            break;
          case FaultAction::Kind::kNone:
            break;
        }
        if (closed) break;
      }
      if (!SendAll(fd, response.data(), response.size())) {
        closed = true;
        break;
      }
    }
    buffer.erase(0, start);
    if (buffer.size() > options_.max_line_bytes) {
      const std::string_view err =
          "{\"ok\":false,\"error\":\"request line too long\"}\n";
      SendAll(fd, err.data(), err.size());
      break;
    }
  }
  // Deregister before closing: once closed, the fd number can be reused by
  // a later accept(), and the drain path must never shut down a stranger.
  // The counter decrement and its notify stay under the mutex: the drain
  // cannot wake, see zero, and destroy the endpoint while this thread is
  // still inside notify_all.
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    std::erase(conn_fds_, fd);
    ::close(fd);
    --active_handlers_;
    conn_cv_.notify_all();
  }
}

int LineEndpoint::Wait() {
  if (!started_ || drained_) return 0;
  if (accept_thread_.joinable()) accept_thread_.join();
  // Stop accepting, then half-close every live connection: handlers see
  // EOF once they have consumed the bytes already received, finish those
  // requests (derived queues are still running), send the responses, and
  // exit.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::unique_lock<std::mutex> lock(conn_mutex_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
    conn_cv_.wait(lock, [&] { return active_handlers_ == 0; });
  }
  OnDrained();
  drained_ = true;
  return 0;
}

namespace {

// SIGINT/SIGTERM must only touch async-signal-safe state: a single pipe
// write through the registered endpoint.
std::atomic<LineEndpoint*> g_signal_endpoint{nullptr};

extern "C" void DrainSignalHandler(int) {
  LineEndpoint* endpoint = g_signal_endpoint.load(std::memory_order_relaxed);
  if (endpoint != nullptr) endpoint->RequestShutdown();
}

}  // namespace

int LineEndpoint::RunUntilDrained(const char* tool, const std::string& extra) {
  g_signal_endpoint.store(this, std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = DrainSignalHandler;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  std::printf("{\"listening\":true,\"host\":\"%s\",\"port\":%d,%s}\n",
              options_.host.c_str(), port_, extra.c_str());
  std::fflush(stdout);

  const int rc = Wait();
  g_signal_endpoint.store(nullptr, std::memory_order_relaxed);
  std::fprintf(stderr, "dsf %s: drained, exiting\n", tool);
  return rc;
}

}  // namespace dsf
