// Local-search Steiner forest (Groß et al., arXiv:1707.02753).
//
// Starts from a feasible forest (the Kruskal-prune baseline, or a caller-
// supplied warm start) and improves it by two move families, applied per
// forest edge in ascending edge-id order:
//   * remove  — drop an edge whose removal keeps every input component
//               connected (pure win);
//   * swap    — if removal breaks demands, find the cheapest reconnection
//               of the two sides in the metric where surviving forest
//               edges cost 0, and take it when it is strictly cheaper.
// Passes repeat until a fixed point (or the pass budget / cancellation).
//
// What the code guarantees: the result is feasible and never heavier than
// the seed. No approximation ratio is claimed. A swap replaces e by a path
// across e's cut, and in a minimum spanning tree every non-tree edge is at
// least as heavy as each tree edge on its cycle (cycle property), so no
// swap improves a forest that lies inside an MST: a cold run returns
// mst-prune's forest unchanged. The moves pay on warm starts, such as the
// repaired forests of the incremental `revise` tier (DESIGN.md §3).
//
// A pass may start by computing which forest edges are needed and an MST
// cut bound on every reconnection's cost; until the pass's first accepted
// swap, an edge whose bound is at least its weight is not searched. The
// bound only skips searches that could not accept, so the moves taken are
// the ones the per-edge search alone would take. The facts cost O(n + m),
// so a pass computes them only when splitting the edges it visits would
// walk at least n + m tree nodes; a small focus on a large graph runs the
// per-edge search alone.
//
// The solver doubles as the *anytime* member of the portfolio: the
// incumbent is feasible after every accepted move, so a deadline can stop
// it at any checkpoint and still return a valid forest.
#pragma once

#include <vector>

#include "common/cancel.hpp"
#include "graph/graph.hpp"
#include "steiner/instance.hpp"

namespace dsf {

struct LocalSearchOptions {
  // Improvement passes over the forest edge list; a pass with no accepted
  // move ends the search early.
  int max_passes = 4;
  // Optional warm start: a feasible, cycle-free forest to optimize instead
  // of the Kruskal-prune seed. Borrowed; validated with a DSF_CHECK.
  const std::vector<EdgeId>* warm_start = nullptr;
  // Optional refinement focus: when non-empty, each pass only attempts
  // moves on forest edges with an endpoint within `focus_radius` forest
  // hops of a focus node (the region is re-marked at the start of every
  // pass). The incremental tier passes the delta-touched region here so a
  // warm re-solve pays for the neighbourhood the delta disturbed, not the
  // whole forest — edges far from the delta were already at the base
  // solve's fixed point. Purely a restriction of the move set: feasibility
  // and the never-worse-than-warm-start guarantee are unaffected.
  // Borrowed; out-of-range nodes are ignored.
  const std::vector<NodeId>* focus = nullptr;
  int focus_radius = 16;
  // Cooperative cancellation, polled per move. Unlike the constructive
  // solvers, a cancelled local search still returns a FEASIBLE forest
  // (the incumbent) unless the seed itself was cancelled mid-build.
  const CancelToken* cancel = nullptr;
};

struct LocalSearchResult {
  std::vector<EdgeId> forest;  // sorted; feasible unless seed was cancelled
  int passes = 0;              // passes fully completed
  long moves = 0;              // accepted improving moves
  long searches = 0;           // reconnection Dijkstras run
  bool cancelled = false;      // stopped early by LocalSearchOptions::cancel
};

// Deterministic given (g, ic, options): move order is edge-id order and all
// Dijkstra ties break by node id.
LocalSearchResult LocalSearchSteinerForest(
    const Graph& g, const IcInstance& ic,
    const LocalSearchOptions& options = {});

}  // namespace dsf
