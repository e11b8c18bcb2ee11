// The resident dsf service (DESIGN.md §5): a dependency-free POSIX TCP
// server speaking the line-delimited JSON protocol of serve/protocol.hpp.
//
// The listener scaffolding (accept thread, detached per-connection line
// framing, socket deadlines, fault injection, drain-not-abort shutdown)
// lives in serve/listener.hpp and is shared with the shard router; this
// class adds the solver-facing state: the shared `ResultCache`, the
// `AdmissionQueue` whose dispatcher thread owns the only `BatchEngine`
// (--threads executors), and the wire-protocol handler. Connection
// handlers probe the cache and block on admission tickets; they never run
// solver work.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "serve/admission.hpp"
#include "serve/cache.hpp"
#include "serve/listener.hpp"
#include "serve/protocol.hpp"

namespace dsf {

struct ServeOptions {
  std::string host = "127.0.0.1";
  int port = 0;              // 0 = ephemeral; Port() reports the bound port
  int threads = 1;           // batch engine executors (0 = hardware)
  int batch_max = 32;        // units per dispatched batch
  int max_pending = 1024;    // admission bound (queued + running units)
  std::size_t cache_entries = 4096;
  int cache_shards = 8;
  // Server-wide anytime deadline cap in wall ms (0 = none): every unit runs
  // under min-of-nonzero(request deadline, this) so one slow unit cannot
  // hold a BatchEngine slot indefinitely.
  int deadline_ms = 0;
  // One request line must fit in memory; longer lines fail the connection.
  std::size_t max_line_bytes = 4u << 20;
  // Per-connection socket deadlines (listener.hpp); <= 0 disables one.
  int send_timeout_ms = 30'000;
  int recv_timeout_ms = 300'000;
  // Fault-injection spec (serve/fault.hpp grammar); empty = disabled.
  std::string fault_spec;
};

class Server : public LineEndpoint {
 public:
  explicit Server(ServeOptions options = {});
  ~Server() override;

  // Introspection for tests and the in-process bench.
  [[nodiscard]] ResultCache& Cache() noexcept { return *cache_; }
  [[nodiscard]] AdmissionQueue& Queue() noexcept { return *queue_; }

 protected:
  std::string HandleLine(std::string_view line) override {
    return HandleRequestLine(context_, line);
  }
  void OnDrained() override { queue_->Drain(); }

 private:
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<AdmissionQueue> queue_;
  ServeContext context_;
};

// CLI entry: starts the server and runs it until a SIGINT/SIGTERM drain
// (LineEndpoint::RunUntilDrained prints the {"listening":...} line).
int RunServe(const ServeOptions& options);

}  // namespace dsf
