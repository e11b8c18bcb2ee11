// The traced in-process replay: the same seeded request stream, run through
// an in-process copy of the measured topology (router hot cache + hash ring
// in front of two backend contexts, each a ResultCache and a one-executor
// AdmissionQueue), calling each layer's public functions in the order
// serve/protocol.cpp calls them and timing every call from here. Nothing
// inside src/ is instrumented.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "serve/cache.hpp"
#include "solve/solver.hpp"
#include "stats.hpp"
#include "stream.hpp"

namespace perfbench {

// Spans on the request path, in protocol order.
enum Span : int {
  kJsonParse,      // ParseJson (router ingress, backend ingress, router egress)
  kRouterKey,      // CanonicalRequestText / RouteAffinityText + RouterRequestKey
  kHotCache,       // HotCache::Lookup / Insert
  kWorkloadParse,  // ParseWorkloadSpec + solver canonicalization + delta
  kExpand,         // ExpandWorkload
  kConnected,      // IsConnected
  kBuildRequests,  // BuildRequests (+ ApplyDelta for a revise)
  kHash,           // HashGraph + CanonicalHash
  kLookup,         // ResultCache::Lookup
  kPrepare,        // PrepareWarmStart (revise with a cached base)
  kSubmitWait,     // AdmissionQueue::SubmitAll + UnitTicket::Wait
  kJsonWrite,      // JsonWriter response
  kSpanCount,
};

// Stages of one cache-missing unit, re-run after the replay on a sample of
// the replay's requests (the queue runs Solve() where no span can reach).
struct StagedUnit {
  std::string solver;
  double params_us = 0;  // CachedParameters, first call per graph only
  int params_calls = 0;
  double transform_us = 0;
  double make_minimal_us = 0;
  double core_us = 0;  // SolveMinimal with the parameter memo pre-warmed
  double prune_us = 0;
  double validate_us = 0;
  double insert_us = 0;  // ResultCache::Insert into a scratch cache
  bool distributed = false;
  bool cr = false;  // connection-request input (ran the transform)
  long messages = 0;
  long bits = 0;
  std::vector<dsf::EdgeId> forest;
  dsf::Weight weight = 0;
  bool feasible = false;

  [[nodiscard]] double TotalUs() const {
    return params_us + transform_us + make_minimal_us + core_us + prune_us +
           validate_us + insert_us;
  }
};

// Runs one unit through the Solve() pipeline stage by stage.
StagedUnit StagedSolve(const dsf::SolveRequest& request, std::uint64_t seed,
                       bool warm_params, dsf::ResultCache& scratch,
                       const dsf::CacheKey& key);

struct ReplayResult {
  std::array<std::vector<double>, kSpanCount> spans_us;
  std::vector<StagedUnit> staged;
  std::vector<double> queue_wait_ms;  // per staged request
  double request_us = 0;              // summed in-process request time
  double submit_wait_us = 0;          // summed kSubmitWait over all requests
  double staged_submit_wait_us = 0;   // ... over the staged requests
  long requests = 0;
  long staged_requests = 0;
  long miss_requests = 0;             // requests with >= 1 cache-missing unit
  double untraced_request_us = 0;     // the same requests, untraced
  Tally tally;  // replay responses plus staged-vs-served mismatches
};

// Replays each client's stream (warm-up requests untraced) for about
// `seconds`, then stage-solves a seeded sample of the cache-missing
// requests within `staged_seconds`, then replays the same request counts
// untraced through HandleRequestLine for the overhead comparison.
ReplayResult RunReplay(const RequestStream& stream, double seconds, double staged_seconds);

// The one-shot reference for a solve request line: every unit solved
// in-process by Solve() with the seed the server derives for it.
std::vector<dsf::SolveResult> OneShotSolve(const std::string& line);

}  // namespace perfbench
