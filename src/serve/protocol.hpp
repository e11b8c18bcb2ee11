// Wire protocol of the dsf service (DESIGN.md §5): line-delimited JSON.
//
// Every request is one JSON object on one line; every response is one JSON
// object on one line. Grammar (fields not listed are rejected only when
// ill-typed; unknown keys are ignored for forward compatibility):
//
//   {"op":"solve", "id":STR?,
//    "spec":STR                      — inline workload text (full .dsf
//                                      grammar except `import`, which would
//                                      read server-local files), or
//    "generate":STR, "instance":STR? — named generator spec, e.g.
//                                      "grid rows=4 cols=4" plus an optional
//                                      "<sampler> [k=v ...]" instance draw
//                                      (default "random-ic k=2 tpc=2"),
//    "solvers":[STR...]?             — solver specs (names or
//                                      portfolio(...) forms, canonicalized
//                                      server-side); default: the spec's
//                                      `as` directive, else every
//                                      registered solver,
//    "seed":N?                       — overrides the spec-level seed (>= 1),
//    "deadline_ms":N?                — per-unit anytime deadline, capped by
//                                      the server's --deadline-ms,
//    "epsilon":X?, "repetitions":N?, "prune":BOOL?}
//   {"op":"revise", "id":STR?,
//    ...solve fields...              — base instance framing; must expand to
//                                      exactly one case x instance x solver
//                                      (default solver: local-search),
//    "base":STR                      — 32-hex canonical key of the cached
//                                      base result (a solve/revise result's
//                                      "key" field),
//    "delta":{"add_pairs":[[u,v]..]?,"remove_pairs":[[u,v]..]?,
//             "add_terminals":[[v,label]..]?,"remove_terminals":[v..]?},
//    "mode":"warm"|"exact-match"?}   — exact-match skips the warm path and
//                                      cold-solves the revised instance
//                                      (bit-identical to op=solve on it)
//   {"op":"stats", "id":STR?}
//   {"op":"ping", "id":STR?}
//
// Solve responses carry one result object per case x instance x solver
// cell, in the same order as the one-shot CLI, and are bit-identical to a
// one-shot `dsf --scenario` run on the same spec and seed (both write
// their result objects with WriteResultFields below): unit i of the
// expanded request matrix is solved with seed DeriveSeed(spec seed, i)
// regardless of cache state, batching, or which connection computed it.
//
//   {"id":..., "ok":true, "seed":N, "requests":N, "hits":N, "misses":N,
//    "coalesced":N, "wall_ms":X, "results":[
//      {"solver":S,"case":C,"instance":I,"input":"ic"|"cr","weight":W,
//       "feasible":B,"cancelled":true?,"edges":[...],
//       "dual_lower_bound":X?,       — moat solvers only
//       "rounds":N,"charged_rounds":N,"messages":N,"total_bits":N,
//       "transform_rounds":N?,"transform_messages":N?,
//       "transform_bits":N?,         — CR units only (Lemma 2.3 transform)
//       "wall_ms":X,"cached":B,"key":HEX}, ...]}
//   {"id":..., "ok":false, "error":STR}            — parse/validation errors
//   {"id":..., "ok":false, "error":"overloaded", "queue_depth":N}
//
// Revise responses add "warm" (the repaired-forest warm path ran), the
// "base_hit" cache verdict, and "key" (the canonical key of the *revised*
// instance — the result is cached under it, so a later exact solve, or the
// next revise in a churn chain, hits). A base-key miss, an oversized delta,
// or a failed repair degrade to a cold solve with "warm":false; the
// response is feasibility-validated either way, and a warm result is never
// worse than its warm-start forest (Solve()'s warm-start incumbent rule,
// solve/solver.hpp; the repair is solve/incremental.hpp).
//
// The stats response exposes the cache counters, queue depths, and the
// per-solver latency digest:
//
//   {"ok":true,"uptime_ms":X,
//    "cache":{"hits","misses","evictions","inserts","entries","capacity"},
//    "queue":{"depth","peak_depth","admitted","coalesced","rejected",
//             "batches","computed"},
//    "solvers":[{"name","count","p50_ms","p95_ms"},...]}
#pragma once

#include <chrono>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>

#include "cli/json.hpp"
#include "serve/admission.hpp"
#include "serve/cache.hpp"
#include "solve/solver.hpp"
#include "workload/spec.hpp"

namespace dsf {

// Shared state a connection handler executes requests against.
struct ServeContext {
  ResultCache* cache = nullptr;
  AdmissionQueue* queue = nullptr;
  // Server-wide cap on the per-unit anytime deadline (ServeOptions); 0 =
  // uncapped. Requests run under min-of-nonzero(request, cap).
  int max_deadline_ms = 0;
  std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();
};

// Executes one request line and returns the response line (no trailing
// newline). Never throws: every failure becomes an {"ok":false,...}
// response.
std::string HandleRequestLine(ServeContext& ctx, std::string_view line);

// Opens a reply object with the head every reply of both tiers starts
// with: "id" (echoed when the request carried one), then "ok". The caller
// writes the remaining members and closes the object.
void BeginReply(JsonWriter& json, const std::string& id, bool ok);

// The failure reply of both tiers: {"id"?,"ok":false,"error":ERROR}
// followed by the integer members of `extra` in order (e.g. serve's
// "queue_depth", the router's "backends_down"/"backends").
std::string ErrorReply(
    const std::string& id, const std::string& error,
    std::initializer_list<std::pair<std::string_view, long long>> extra = {});

// Writes `counters` as one stats object: serve's "cache" and the router's
// "hot_cache" share this shape and key order.
void WriteCacheCounters(JsonWriter& json, const CacheCounters& counters);

// Writes the members of one result object, shared by the one-shot CLI's
// "results" and the solve/revise responses above (which append "cached"
// and "key"); the caller opens and closes the object. "reference_weight"
// and "approx_ratio" appear once an exact reference was filled in (the
// CLI's --reference).
void WriteResultFields(JsonWriter& json, const WorkloadCase& wc,
                       const WorkloadInstance& inst, const SolveResult& r);

}  // namespace dsf
