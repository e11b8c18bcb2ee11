// Graph parameters used throughout the paper's statements (Section 2):
//   D  — unweighted (hop) diameter,
//   WD — weighted diameter: max over pairs of weighted distance,
//   s  — shortest-path diameter: max over pairs of the minimum hop count of a
//        least-weight path between them (the time Bellman-Ford needs).
#pragma once

#include "graph/graph.hpp"

namespace dsf {

struct GraphParameters {
  int unweighted_diameter = 0;   // D
  Weight weighted_diameter = 0;  // WD
  int shortest_path_diameter = 0;  // s
  bool connected = true;
};

// Exact computation: s and WD from one Dijkstra per source (radix queue,
// graph/shortest_paths.hpp), D from a bit-parallel BFS that carries 64
// sources per pass in one machine word per node. Costs n Dijkstras plus at
// most the work of n BFS traversals, with O(n) extra memory; meant for the
// instance sizes of tests, benches and served requests (n up to a few
// thousand).
GraphParameters ComputeParameters(const Graph& g);

// Memoized ComputeParameters for a finalized graph: computed on first call,
// then shared by every subsequent run on the same (immutable) topology —
// repeated protocol runs stop paying the all-pairs recomputation. Safe to
// call concurrently: a mutex serializes the install, so every caller gets
// the same object (a cold race may compute it more than once).
const GraphParameters& CachedParameters(const Graph& g);

// True if g is connected.
bool IsConnected(const Graph& g);

}  // namespace dsf
