// Shared scaffolding for every resident line-protocol process: the `dsf
// serve` backend and the `dsf shard-router` front tier are both "a POSIX
// TCP listener that answers one JSON line per request line", and this base
// class owns exactly that shape so the two cannot drift:
//
//   * one accept thread (poll over the listen socket and a self-pipe),
//   * one detached handler thread per connection running the line-framing
//     loop — handlers parse frames and call the derived `HandleLine`,
//     they are counted rather than joined (a resident process must not
//     accumulate a zombie joinable thread per finished connection),
//   * per-connection SO_SNDTIMEO / SO_RCVTIMEO deadlines (options): an
//     unresponsive reader or a client stalled mid-line drops its
//     connection instead of pinning a handler — and with it the drain —
//     forever,
//   * a `FaultInjector` consulted once per request line, so chaos tests
//     can make any endpoint drop / delay / truncate / die deterministically,
//   * drain-not-abort shutdown (`RequestShutdown` is async-signal-safe):
//     stop accepting, half-close every connection so handlers finish the
//     request lines already received and deliver their responses, wait for
//     the handler count to reach zero, then let the derived class drain
//     its own queues via `OnDrained`. `Wait()` returns 0 after a clean
//     drain,
//   * the CLI entry both tiers run after `Start()`: `RunUntilDrained`
//     prints the {"listening":...} line, routes SIGINT/SIGTERM to the
//     drain, and prints "drained, exiting" once it completes.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/fault.hpp"

namespace dsf {

struct LineEndpointOptions {
  std::string host = "127.0.0.1";
  int port = 0;               // 0 = ephemeral; Port() reports the bound port
  // One request line must fit in memory; longer lines fail the connection.
  std::size_t max_line_bytes = 4u << 20;
  // Per-connection socket deadlines in ms (<= 0 disables). The send side
  // bounds writes to peers that never read their response; the receive
  // side bounds clients that stall mid-line and would otherwise pin a
  // connection handler until shutdown.
  int send_timeout_ms = 30'000;
  int recv_timeout_ms = 300'000;
};

// The listener fields of a tier's options (ServeOptions, RouterOptions),
// which carry them under the same names.
template <class TierOptions>
LineEndpointOptions EndpointOptionsOf(const TierOptions& o) {
  return {o.host, o.port, o.max_line_bytes, o.send_timeout_ms,
          o.recv_timeout_ms};
}

class LineEndpoint {
 public:
  explicit LineEndpoint(LineEndpointOptions options);
  virtual ~LineEndpoint();

  LineEndpoint(const LineEndpoint&) = delete;
  LineEndpoint& operator=(const LineEndpoint&) = delete;

  // Binds + listens + spawns the accept thread. Throws std::runtime_error
  // when the socket cannot be bound.
  void Start();

  // The bound port (valid after Start()).
  [[nodiscard]] int Port() const noexcept { return port_; }

  // Triggers the drain. Async-signal-safe (a single write to a pipe), so
  // signal handlers call it directly.
  void RequestShutdown() noexcept;

  // Blocks until the endpoint has fully drained; returns the process exit
  // code (0 on a clean drain).
  int Wait();

  // The `dsf serve` / `dsf shard-router` process body, called after
  // Start(): prints {"listening":true,"host":H,"port":P,EXTRA} to stdout
  // (scripts scrape the bound port from it), routes SIGINT/SIGTERM to
  // RequestShutdown, blocks in Wait(), then prints "dsf TOOL: drained,
  // exiting" to stderr. Returns Wait()'s exit code.
  int RunUntilDrained(const char* tool, const std::string& extra);

  // The endpoint's fault hook (disabled unless configured). Tests arm and
  // re-arm it at runtime while traffic is in flight.
  [[nodiscard]] FaultInjector& Fault() noexcept { return fault_; }

 protected:
  // Executes one request line, returning the response line (no trailing
  // newline). Called concurrently from handler threads; must not throw.
  virtual std::string HandleLine(std::string_view line) = 0;

  // Called once from Wait() after every handler has exited and before
  // Wait() returns: derived classes drain their own work queues here.
  virtual void OnDrained() {}

  // Derived destructors MUST call Shutdown() (RequestShutdown + Wait)
  // before destroying their own state: handler threads call HandleLine
  // until the drain completes.
  void Shutdown() noexcept;

 private:
  void AcceptLoop();
  void HandleConnection(int fd);

  LineEndpointOptions options_;
  FaultInjector fault_;

  int listen_fd_ = -1;
  int port_ = 0;
  int shutdown_pipe_[2] = {-1, -1};
  std::thread accept_thread_;

  // Handler threads run detached (see the header comment), so connection
  // tracking is a counter: the drain waits for it to reach zero instead of
  // joining.
  std::mutex conn_mutex_;
  std::condition_variable conn_cv_;
  std::vector<int> conn_fds_;
  int active_handlers_ = 0;
  bool started_ = false;
  bool drained_ = false;
};

}  // namespace dsf
