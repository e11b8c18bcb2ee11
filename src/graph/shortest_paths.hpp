// Centralized shortest-path machinery.
//
// Used by the centralized reference algorithms (moat growing needs exact
// terminal-terminal distances wd(v, w)) and by the analysis/validation side of
// every experiment. The distributed protocols themselves run Bellman-Ford
// style message passing on the simulator and only reach for this code in
// their explicitly substituted subroutines (charged via
// Network::ChargeRounds / RunStats::charged_rounds — see DESIGN.md §7),
// which is why the Dijkstra tie-breaking below must match the distributed
// relaxation order exactly.
#pragma once

#include <vector>

#include "common/cancel.hpp"
#include "common/ids.hpp"
#include "graph/graph.hpp"

namespace dsf {

struct ShortestPathTree {
  NodeId source = kNoNode;
  std::vector<Weight> dist;          // weighted distance from source; kInfWeight if unreachable
  std::vector<NodeId> parent;        // predecessor on a least-weight path; kNoNode at source
  std::vector<EdgeId> parent_edge;   // edge to the predecessor; kNoEdge at source
  std::vector<int> hops;             // hop count of the stored least-weight path

  [[nodiscard]] bool Reachable(NodeId v) const {
    return dist[static_cast<std::size_t>(v)] < kInfWeight;
  }

  // Edge ids along the stored path from source to v (empty if v == source).
  [[nodiscard]] std::vector<EdgeId> PathTo(NodeId v) const;
};

// Dijkstra from a single source over a monotone radix queue. Ties between
// equal-weight paths are broken toward fewer hops, then smaller predecessor
// id (deterministic). `cancel` is a cooperative checkpoint polled every few
// thousand pops (a portfolio loser must stop inside a whole-graph scan, not
// after it); an expired token yields a PARTIAL tree — unsettled nodes keep
// kInfWeight — which the caller must discard or report as cancelled.
ShortestPathTree Dijkstra(const Graph& g, NodeId source,
                          const CancelToken* cancel = nullptr);

// WD and s in one all-sources pass: the largest distance and the largest
// hop count among Dijkstra's labels over every (source, reachable node)
// pair. Same queue and the same (dist, hops) minimum as Dijkstra, without
// trees: the (neighbor, weight) arcs are built once, one label buffer
// serves every source, and both maxima are folded as nodes settle.
struct PathDiameters {
  Weight weighted = 0;  // WD
  int hops = 0;         // s
};
PathDiameters AllPairsPathDiameters(const Graph& g);

// Connected components of (V, E). Returns component index per node and count.
struct Components {
  std::vector<int> comp;
  int count = 0;
};
Components ConnectedComponents(const Graph& g);

}  // namespace dsf
