// Incremental re-solve: warm-start a revised instance from the base forest.
//
// The Gupta–Kumar-style observation behind the serve tier's `revise` op:
// when a demand delta touches a small fraction of a solved instance,
// repairing the existing forest is far cheaper than re-growing moats from
// scratch. The repair is two passes over the base forest:
//
//   1. prune — group each revised component's terminals by the base tree
//      that contains them; every group of >= 2 terminals becomes a synthetic
//      label, and `MinimalFeasibleSubforest` against that synthetic instance
//      drops exactly the edges that only served removed demands (plus any
//      Steiner twigs they stranded);
//   2. attach — for each revised component still split across trees, a
//      stopped Dijkstra in the metric where current-forest edges cost 0
//      finds the cheapest path from the component's core tree to any tree
//      holding another of its terminals; non-forest path edges are added
//      under a union-find cycle guard until the component is connected.
//
// The repaired forest is validated (`IsForest` + `IsFeasible`) and handed to
// the pipeline as `SolveOptions::warm_start` for a `local-search` run. The
// result is never worse than the warm start: local search keeps its
// incumbent, and `Solve()` itself returns the warm start should a result be
// infeasible or heavier (solve/solver.hpp). A revise has one path:
// `PrepareWarmStart`, then admission, then `Solve()`. The fallback ladder:
// delta too large -> cold; solver not warm-startable -> cold; repair fails
// validation -> cold. Cold means a plain `Solve()` of the revised request —
// always available, never wrong.
#pragma once

#include <span>
#include <string>

#include "solve/solver.hpp"
#include "steiner/delta.hpp"

namespace dsf {

// Warm-path eligibility: deltas larger than this fraction of the base
// demand count (pairs for CR, terminals for IC) take the cold path — repair
// plus local search on a mostly-new instance costs more than a fresh solve.
inline constexpr double kMaxDeltaFraction = 0.25;

struct RepairOutcome {
  std::vector<EdgeId> forest;  // sorted; meaningful only when ok
  bool ok = false;             // repaired forest is a feasible forest
  int dropped = 0;             // base edges removed by the pruning pass
  int attached = 0;            // Dijkstra paths added by the attach pass
  // Nodes whose neighbourhood the repair changed: endpoints of pruned and
  // attach-added edges. Together with the delta's own nodes this is the
  // refinement focus (SolveOptions::focus) — the warm local-search pass
  // only re-examines forest edges near one of these. Sorted, deduplicated.
  std::vector<NodeId> touched;
};

// Repairs `base_forest` (a forest, feasible for the instance the base was
// solved on) into a feasible forest for `revised`. Never throws: structural
// problems (cycle in the base, unreachable new terminals) come back as
// ok == false.
RepairOutcome RepairForest(const Graph& g, const IcInstance& revised,
                           std::span<const EdgeId> base_forest);

// The revised request plus the warm-start decision. The serve tier's
// `revise` handler submits `revised` through admission, so coalescing and
// caching treat revise units like solve units; a caller in one process
// passes it to `Solve()` directly.
struct WarmStartPlan {
  SolveRequest revised;     // delta applied; options.warm_start set when warm
  bool warm = false;        // warm path taken
  Weight warm_weight = 0;   // weight of the repaired forest (warm only)
  std::string cold_reason;  // why the warm path was skipped ("" when warm)
};

// Applies `delta` to `base` and decides the warm/cold path. Throws
// std::runtime_error on an invalid delta (see steiner/delta.hpp); every
// other failure degrades to a cold plan with `cold_reason` set.
WarmStartPlan PrepareWarmStart(const SolveRequest& base,
                               std::span<const EdgeId> base_forest,
                               const InstanceDelta& delta);

}  // namespace dsf
