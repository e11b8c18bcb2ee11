// Client side of the dsf service: a tiny blocking line-protocol connection
// (used by `dsf client`, the shard router's pooled upstream hops and health
// probes, the serve tests, and the bench_serve load generator) plus the
// `dsf client` subcommand logic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "cli/json.hpp"
#include "serve/retry.hpp"

namespace dsf {

// Deadlines and bounds for one connection; zeros disable each limit (the
// one-shot CLI default). The router sets all four: a dead or byzantine
// backend must fail a request in bounded time and bounded memory.
struct ConnectionLimits {
  int connect_timeout_ms = 0;
  int send_timeout_ms = 0;
  int recv_timeout_ms = 0;
  std::size_t max_line_bytes = 0;
};

// One blocking TCP connection speaking newline-delimited JSON. Methods
// throw std::runtime_error on socket failures (including deadline expiry
// when limits are set).
class ClientConnection {
 public:
  ClientConnection(const std::string& host, int port,
                   ConnectionLimits limits = {});
  ~ClientConnection();

  ClientConnection(const ClientConnection&) = delete;
  ClientConnection& operator=(const ClientConnection&) = delete;

  // Sends `line` plus the terminating newline.
  void SendLine(std::string_view line);
  // Receives the next response line (newline stripped). False on EOF.
  bool RecvLine(std::string& line);

  // Send + receive + parse in one step; throws when the server hangs up.
  JsonValue RoundTrip(std::string_view request_line);

 private:
  int fd_ = -1;
  std::size_t max_line_bytes_ = 0;
  std::string buffer_;
};

// `dsf client` subcommand arguments (parsed in cli/main.cpp).
struct ClientArgs {
  std::string host = "127.0.0.1";
  int port = 0;
  // Exactly one of: scenario file (sent inline as "spec"), generator spec,
  // stats, ping.
  std::string scenario_path;
  std::string generate;
  std::string instance;  // optional with --generate
  bool stats = false;
  bool ping = false;
  // Revise op (--revise KEY): turns the solve framing into op=revise
  // against the cached base result named by the 32-hex canonical key (a
  // previous solve/revise result's "key" field).
  std::string revise_base;
  // --delta spec: whitespace/comma-separated edits applied to the base
  // instance — add=U-V / rm=U-V (CR pairs), addt=V:L / rmt=V (IC
  // terminals). Empty means an empty delta.
  std::string delta;
  std::string revise_mode;  // "" (server default: warm) | "exact-match"
  std::string solvers;   // comma list of solver specs; empty = all
  std::uint64_t seed = 0;
  bool seed_set = false;
  double epsilon = 0.0;
  int repetitions = 1;
  int deadline_ms = 0;   // per-unit anytime deadline passed to the server
  bool prune = true;
  int repeat = 1;        // send the same solve N times (duplicate burst)
  std::string json_path; // write response lines here as well
  // Connect retries (serve/retry.hpp): one-shot clients survive transient
  // connect failures — a backend mid-restart, a router not yet bound.
  RetryPolicy retry;
};

// Runs the subcommand: sends the request(s), prints each response line to
// stdout, and returns 0 iff every response was ok (and, for solves, every
// result feasible).
int RunClient(const ClientArgs& args);

// Builds the request line for `args` (exposed for tests).
std::string BuildClientRequest(const ClientArgs& args);

}  // namespace dsf
