// Admission control and batch coalescing between connection handlers and
// the solver engine (DESIGN.md §5).
//
// Connection handlers never run solver work themselves. Each cache-missing
// unit is submitted here; a single dispatcher thread collects queued units
// into batches of up to `batch_max` and runs them on one `BatchEngine`
// (solve/batch.hpp), so concurrent requests share the engine's round pool
// instead of oversubscribing cores with per-connection engines.
//
// Two admission rules bound the server:
//   * a depth limit: a submission that would push the number of queued +
//     running units past `max_pending` is rejected atomically (nothing from
//     that request is enqueued) — the caller answers "overloaded" instead
//     of stalling every connection behind an unbounded backlog,
//   * in-flight coalescing: a unit whose canonical key is already queued or
//     running joins the existing computation's ticket instead of enqueuing
//     a duplicate — under bursts of identical traffic the engine computes
//     each distinct key once.
//
// The dispatcher publishes every finished unit to the shared `ResultCache`
// and records its latency per solver (fixed-size reservoir) for `/stats`
// p50/p95 reporting. The same rings feed back into dispatch: portfolio
// mode=first units receive the current p50 digest as latency hints, so the
// race starts its historically-fastest member first (solve/solver.hpp,
// PortfolioStartOrder).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/cache.hpp"
#include "solve/batch.hpp"

namespace dsf {

// Completion ticket of one scheduled (or joined) unit. The submitter whose
// request *created* the ticket must keep the referenced graph alive until
// Wait() returns; joiners only read the result.
class UnitTicket {
 public:
  // Blocks until the dispatcher finished the unit. Empty error => success.
  const SolveResult& Wait();
  [[nodiscard]] const std::string& Error() const noexcept { return error_; }

 private:
  friend class AdmissionQueue;
  void Complete(SolveResult result);
  void CompleteError(std::string error);

  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  SolveResult result_;
  std::string error_;
};

struct QueueCounters {
  std::uint64_t admitted = 0;    // units enqueued for computation
  std::uint64_t coalesced = 0;   // units that joined an in-flight ticket
  std::uint64_t rejected = 0;    // whole submissions bounced by the bound
  std::uint64_t batches = 0;     // dispatcher batches executed
  std::uint64_t computed = 0;    // units finished by the engine
  std::uint64_t depth = 0;       // currently queued + running units
  std::uint64_t peak_depth = 0;
};

struct SolverLatency {
  std::string solver;
  std::uint64_t count = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};

struct AdmissionOptions {
  int threads = 1;        // batch engine executors
  int batch_max = 32;     // max units per dispatched batch
  int max_pending = 1024; // admission bound on queued + running units
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(ResultCache* cache, AdmissionOptions options = {});
  ~AdmissionQueue();

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  struct Admission {
    // One ticket per unit (request order); empty when the submission was
    // rejected by the depth bound — nothing was enqueued and no graph
    // reference was retained.
    std::vector<std::shared_ptr<UnitTicket>> tickets;
    std::uint64_t coalesced = 0;  // units of THIS call that joined in-flight
  };

  // Atomically admits one request's cache-missing units: every unit either
  // joins an in-flight ticket for its key or is enqueued. Requests carry
  // their final per-unit seeds in `seeds` (see serve/protocol.hpp on
  // determinism).
  [[nodiscard]] Admission SubmitAll(std::span<const SolveRequest> units,
                                    std::span<const CacheKey> keys,
                                    std::span<const std::uint64_t> seeds);

  // Stops admission (SubmitAll returns empty), lets the dispatcher finish
  // everything already queued, and joins it. Idempotent.
  void Drain();

  [[nodiscard]] QueueCounters Counters() const;
  // Latency digest per solver name, alphabetical.
  [[nodiscard]] std::vector<SolverLatency> Latencies() const;

 private:
  struct Task {
    SolveRequest request;  // borrows the submitter's graph
    CacheKey key;
    std::shared_ptr<UnitTicket> ticket;
  };

  void DispatchLoop();
  void RecordLatency(const std::string& solver, double ms);

  ResultCache* cache_;
  AdmissionOptions options_;
  std::unique_ptr<BatchEngine> engine_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool closing_ = false;
  std::deque<Task> queue_;
  // Canonical key -> the ticket every duplicate joins. Entries cover queued
  // AND running units and are erased only after the result is in the
  // cache. That does not close every race: a handler whose cache lookup
  // missed before the insert and whose SubmitAll runs after the erase
  // finds neither, and the key is admitted (computed) a second time.
  std::unordered_map<CacheKey, std::shared_ptr<UnitTicket>, CacheKeyHash>
      inflight_;
  QueueCounters counters_;

  // Fixed-size latency reservoir per solver (most recent samples win).
  struct LatencyRing {
    std::vector<double> samples;  // capacity kLatencyWindow
    std::size_t next = 0;
    std::uint64_t count = 0;
  };
  static constexpr std::size_t kLatencyWindow = 4096;
  mutable std::mutex latency_mutex_;
  std::map<std::string, LatencyRing> latency_;

  std::mutex join_mutex_;  // serializes Drain's join across callers
  std::thread dispatcher_;
};

}  // namespace dsf
