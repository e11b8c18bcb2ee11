// Graph parameters used throughout the paper's statements (Section 2):
//   D  — unweighted (hop) diameter,
//   WD — weighted diameter: max over pairs of weighted distance,
//   s  — shortest-path diameter: max over pairs of the minimum hop count of a
//        least-weight path between them (the time Bellman-Ford needs).
//
// They come in two tiers of cost, each memoized on the finalized graph. The
// hop tier (connectivity and D) is what every distributed protocol is
// granted: it needs no shortest paths. The full tier adds s and WD, which
// only the randomized algorithm and its Khan-style baseline read (√n
// truncation, level count, charged rounds); it reuses the hop tier.
#pragma once

#include "graph/graph.hpp"

namespace dsf {

struct HopParameters {
  int unweighted_diameter = 0;  // D
  bool connected = true;
};

struct GraphParameters {
  int unweighted_diameter = 0;   // D
  Weight weighted_diameter = 0;  // WD
  int shortest_path_diameter = 0;  // s
  bool connected = true;
};

// Exact hop tier: D from a bit-parallel BFS that carries 64 sources per pass
// in one machine word per node, connectivity from one plain BFS. Costs at
// most the work of n BFS traversals, with O(n) extra memory.
HopParameters ComputeHopParameters(const Graph& g);

// Exact full tier: the hop tier plus s and WD from one all-sources pass
// (AllPairsPathDiameters, graph/shortest_paths.hpp), n radix-queue
// Dijkstras without trees; meant for the instance sizes of tests, benches
// and served requests (n up to a few thousand).
GraphParameters ComputeParameters(const Graph& g);

// Memoized tiers for a finalized graph: computed on first call, then shared
// by every subsequent run on the same (immutable) topology. CachedParameters
// takes D and connectivity from CachedHopParameters. Safe to call
// concurrently: a mutex serializes each install, so every caller of a tier
// gets the same object (a cold race may compute it more than once).
const HopParameters& CachedHopParameters(const Graph& g);
const GraphParameters& CachedParameters(const Graph& g);

// True if g is connected.
bool IsConnected(const Graph& g);

}  // namespace dsf
