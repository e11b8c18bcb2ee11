// The dsf shard router (DESIGN.md §5): a fault-tolerant front tier that
// spreads requests across M backend `dsf serve` processes and survives any
// of them dying mid-load.
//
// The router is itself a `LineEndpoint` speaking the same line-delimited
// JSON protocol as the backends, so the inter-tier wire format is the wire
// format — a client cannot tell a router from a single server (except that
// `stats` reports routing state instead of solver state). Routing is safe
// to retry because a solve response is a deterministic function of the
// request content: unit i always runs with seed DeriveSeed(spec seed, i),
// so replaying a request on another shard returns bit-identical bytes.
//
// Pieces:
//   * `HashRing` — consistent hashing with virtual nodes. Each request's
//     canonical key owns a full preference order of distinct backends (the
//     ring walk), so failover targets are deterministic and cache locality
//     survives single-shard loss: only keys owned by the dead shard move.
//   * `HealthMachine` — per-backend up/down state. Any transport failure
//     (connect refused, socket deadline, EOF mid-request, malformed reply)
//     counts toward down; only consecutive *probe* successes re-admit a
//     down backend, so a flapping process must prove itself before it
//     takes traffic again.
//   * a probe thread pinging every backend each `probe_interval_ms`,
//   * per-backend pools of upstream `ClientConnection`s (serve/client.hpp)
//     built from the upstream deadlines and `max_line_bytes` (flushed on
//     an up→down transition; a reused pooled connection that fails gets
//     one fresh-connection retry before the backend is blamed),
//   * a router-local `HotCache` — serve's `LruCache` (serve/cache.hpp)
//     with one shard, holding id-stripped response lines keyed by
//     `RouterRequestKey` — in front of the per-shard result caches,
//   * bounded retry with exponential backoff + deterministic jitter
//     (serve/retry.hpp) and failover along the ring walk; all replicas
//     down yields a structured {"ok":false,"error":"unavailable"} reply.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cli/json.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/listener.hpp"
#include "serve/retry.hpp"

namespace dsf {

struct BackendSpec {
  std::string host = "127.0.0.1";
  int port = 0;
};

// Parses "host:port" or a bare port (host defaults to 127.0.0.1); throws
// std::runtime_error on malformed input.
[[nodiscard]] BackendSpec ParseBackendSpec(const std::string& text);

// --- consistent hash ring ----------------------------------------------------

class HashRing {
 public:
  // `replicas_per_backend` virtual nodes per backend; points are Mix64
  // digests of (backend, replica), so the ring is deterministic across
  // processes given the same backend count.
  HashRing(std::size_t backend_count, int replicas_per_backend);

  // The backend owning `point` (first ring node clockwise of it).
  [[nodiscard]] int PrimaryBackend(std::uint64_t point) const;

  // Every distinct backend in ring-walk order starting at `point`'s owner:
  // element 0 is the primary, element 1 the first failover target, and so
  // on. Deterministic, so a retry after restart lands on the same shards.
  [[nodiscard]] std::vector<int> PreferenceOrder(std::uint64_t point) const;

  [[nodiscard]] std::size_t BackendCount() const noexcept {
    return backend_count_;
  }

 private:
  std::vector<std::pair<std::uint64_t, int>> ring_;  // (point, backend)
  std::size_t backend_count_ = 0;
};

// --- per-backend health ------------------------------------------------------

struct HealthPolicy {
  // Transport failures (probe or in-band) before an up backend goes down.
  int failures_to_down = 1;
  // Consecutive probe successes before a down backend is re-admitted.
  // In-band successes never re-admit: a backend that answered one straggler
  // while flapping has not proven it can take traffic.
  int successes_to_up = 2;
};

class HealthMachine {
 public:
  explicit HealthMachine(HealthPolicy policy = {}) : policy_(policy) {}

  // Records a transport failure. Returns true on the up→down transition.
  bool RecordFailure();
  // Records a probe success. Returns true on the down→up transition.
  bool RecordProbeSuccess();
  // Records an in-band success: clears the failure streak of an up
  // backend; ignored while down (only probes re-admit).
  void RecordSuccess();

  [[nodiscard]] bool IsUp() const noexcept { return up_; }
  [[nodiscard]] int ConsecutiveFailures() const noexcept {
    return consecutive_failures_;
  }
  [[nodiscard]] int ConsecutiveSuccesses() const noexcept {
    return consecutive_successes_;
  }

 private:
  HealthPolicy policy_;
  bool up_ = true;  // optimistic start; the first failure downs it
  int consecutive_failures_ = 0;
  int consecutive_successes_ = 0;
};

// --- router-local hot cache --------------------------------------------------

// LRU of id-stripped response lines keyed by the canonical request key. A
// hit skips the backend hop entirely; safe because responses are
// deterministic functions of the id-stripped request. The router builds it
// with one shard, so recency is global.
using HotCache = LruCache;

// --- canonical request keying ------------------------------------------------

// Canonical serialization of a parsed request: object keys sorted at every
// level, the top-level "id" member stripped, string escaping normalized,
// number literals preserved as written. Two framings of the same request
// (key order, whitespace, id) map to the same text. This over-approximates
// the server's per-unit CanonicalHash — e.g. "spec" vs an equivalent
// "generate" still differ — which can only cost hot-cache misses, never
// wrong results.
[[nodiscard]] std::string CanonicalRequestText(const JsonValue& request);

// 128-bit key of the canonical text (two independent FNV-1a streams, same
// shape as serve/cache.cpp). `lo` doubles as the ring point.
[[nodiscard]] CacheKey RouterRequestKey(std::string_view canonical_text);

// Ring-placement text of a request. For op=revise this is the canonical
// text of the *solve-equivalent* request (op rewritten to "solve";
// "base"/"delta"/"mode" stripped): a revise then walks the ring from the
// same point as the solve that produced its base result, so the warm path
// finds the base key in that backend's cache. Chained revises whose framing
// drifts across states may still land elsewhere — the op degrades to a
// cold solve there, never a wrong answer. Every other op keys on its full
// canonical text.
[[nodiscard]] std::string RouteAffinityText(const JsonValue& request);

// --- the router --------------------------------------------------------------

struct RouterOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral
  std::vector<BackendSpec> backends;
  int ring_replicas = 64;  // virtual nodes per backend
  // Per-request attempts = retries + 1, spread over the ring walk.
  RetryPolicy retry{3, 50, 2000};
  HealthPolicy health;
  // Probe cadence; <= 0 disables the probe thread (tests drive ProbeNow()).
  int probe_interval_ms = 250;
  int probe_timeout_ms = 1'000;  // connect + send + recv deadline per probe
  // Upstream hop deadlines: a dead-but-connected backend must fail a
  // request in bounded time.
  int connect_timeout_ms = 1'000;
  int upstream_send_timeout_ms = 5'000;
  int upstream_recv_timeout_ms = 60'000;
  std::size_t hot_cache_entries = 512;
  // Downstream listener knobs (LineEndpoint).
  std::size_t max_line_bytes = 4u << 20;
  int send_timeout_ms = 30'000;
  int recv_timeout_ms = 300'000;
  // Fault-injection spec for the router's own listener (chaos harness).
  std::string fault_spec;
};

struct RouterBackendStatus {
  BackendSpec spec;
  bool up = true;
  int consecutive_failures = 0;
  int consecutive_successes = 0;
  std::uint64_t forwarded = 0;       // successful round trips
  std::uint64_t failures = 0;        // in-band transport failures
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;
  std::uint64_t times_down = 0;      // up→down transitions
};

struct RouterCounters {
  std::uint64_t requests = 0;   // request lines handled
  std::uint64_t hot_hits = 0;   // served from the router-local cache
  std::uint64_t retries = 0;    // attempts beyond the first
  std::uint64_t failovers = 0;  // attempts that switched backends
  std::uint64_t shed = 0;       // "unavailable" replies (all replicas down)
};

class Router : public LineEndpoint {
 public:
  explicit Router(RouterOptions options);
  ~Router() override;

  // Binds the listener and starts the probe thread (hides the base Start,
  // which it calls first).
  void Start();

  // One synchronous probe round over every backend; the test hook behind
  // probe_interval_ms <= 0.
  void ProbeNow();

  // Introspection for tests and the stats op.
  [[nodiscard]] std::vector<RouterBackendStatus> Backends() const;
  [[nodiscard]] RouterCounters Counters() const;
  [[nodiscard]] CacheCounters HotCacheCounters() const {
    return hot_cache_.Counters();
  }

 protected:
  std::string HandleLine(std::string_view line) override;
  void OnDrained() override;

 private:
  std::string RouteRequest(const JsonValue& request, const std::string& id);
  std::string StatsResponse(const std::string& id);
  bool ForwardTo(int backend, const std::string& line, std::string& raw,
                 bool& ok_out);
  void FlushPool(int backend);
  int FirstUpBackend(const std::vector<int>& order, int& up_count) const;
  void RecordBackendFailure(int backend);
  void RecordBackendSuccess(int backend);
  void RecordProbe(int backend, bool ok);
  void ProbeLoop();
  void StopProbe() noexcept;

  struct BackendState {
    HealthMachine machine;
    std::uint64_t forwarded = 0;
    std::uint64_t failures = 0;
    std::uint64_t probes = 0;
    std::uint64_t probe_failures = 0;
    std::uint64_t times_down = 0;
  };

  RouterOptions options_;
  HashRing ring_;
  HotCache hot_cache_;
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();

  mutable std::mutex health_mutex_;
  std::vector<BackendState> backends_;

  std::mutex pool_mutex_;
  std::vector<std::vector<std::unique_ptr<ClientConnection>>> pools_;

  std::thread probe_thread_;
  std::mutex probe_mutex_;
  std::condition_variable probe_cv_;
  bool probe_stop_ = false;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> hot_hits_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> shed_{0};
};

// CLI entry: starts the router and runs it until a SIGINT/SIGTERM drain
// (LineEndpoint::RunUntilDrained prints the {"listening":...} line).
int RunShardRouter(const RouterOptions& options);

}  // namespace dsf
