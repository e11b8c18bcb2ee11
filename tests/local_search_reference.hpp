// Differential reference for steiner/local_search.cpp: the same moves in
// the same order, without the per-pass facts (needed edges and MST cut
// bounds). Every forest edge of every pass is split with two BFSes, tested
// for broken demands, and searched with a Dijkstra (counted in
// `searches`). test_local_search asserts the library returns the same
// forest, moves and passes with no more searches. Test code only: nothing
// in src/ needs it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "graph/union_find.hpp"
#include "steiner/local_search.hpp"
#include "steiner/mst.hpp"
#include "steiner/prune.hpp"
#include "steiner/validate.hpp"

namespace dsf::reference {

// Per-call scratch: version-stamped arrays shared by the side BFS and the
// reconnection Dijkstra so no move pays an O(n) clear.
struct Scratch {
  std::vector<std::uint32_t> side1, side2;  // BFS membership stamps
  std::vector<Weight> dist;
  std::vector<EdgeId> parent;
  std::vector<std::uint32_t> seen;  // Dijkstra stamp
  std::uint32_t cur = 0;

  explicit Scratch(int n)
      : side1(static_cast<std::size_t>(n), 0),
        side2(static_cast<std::size_t>(n), 0),
        dist(static_cast<std::size_t>(n), 0),
        parent(static_cast<std::size_t>(n), kNoEdge),
        seen(static_cast<std::size_t>(n), 0) {}
};

using ForestAdj = std::vector<std::vector<std::pair<NodeId, EdgeId>>>;

inline void BuildAdj(const Graph& g, const std::vector<EdgeId>& forest,
                     ForestAdj& adj) {
  for (auto& a : adj) a.clear();
  for (const EdgeId id : forest) {
    const auto& e = g.GetEdge(id);
    adj[static_cast<std::size_t>(e.u)].push_back({e.v, id});
    adj[static_cast<std::size_t>(e.v)].push_back({e.u, id});
  }
}

// Marks the component of `start` in the forest minus `skip` with `cur` in
// `mark`, collecting the nodes.
inline void MarkSide(const ForestAdj& adj, NodeId start, EdgeId skip,
                     std::vector<std::uint32_t>& mark, std::uint32_t cur,
                     std::vector<NodeId>& out) {
  out.clear();
  out.push_back(start);
  mark[static_cast<std::size_t>(start)] = cur;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const NodeId u = out[i];
    for (const auto& [nb, id] : adj[static_cast<std::size_t>(u)]) {
      if (id == skip) continue;
      if (mark[static_cast<std::size_t>(nb)] == cur) continue;
      mark[static_cast<std::size_t>(nb)] = cur;
      out.push_back(nb);
    }
  }
}

inline LocalSearchResult ReferenceLocalSearch(
    const Graph& g, const IcInstance& ic,
    const LocalSearchOptions& options = {}) {
  DSF_CHECK(ic.NumNodes() == g.NumNodes());
  DSF_CHECK(options.max_passes >= 1);
  const int n = g.NumNodes();
  const int m = g.NumEdges();

  LocalSearchResult result;

  // Seed: the caller's warm start, or the Kruskal-prune baseline.
  std::vector<EdgeId> forest;
  if (options.warm_start != nullptr) {
    DSF_CHECK_MSG(g.IsForest(*options.warm_start) &&
                      IsFeasible(g, ic, *options.warm_start),
                  "local search warm start must be a feasible forest");
    forest = *options.warm_start;
  } else {
    std::vector<EdgeId> mst = KruskalMst(g, options.cancel);
    if (IsCancelled(options.cancel)) {
      // Cancelled mid-seed: the only case where the result may be
      // infeasible — there is no incumbent yet to fall back on.
      std::sort(mst.begin(), mst.end());
      result.forest = std::move(mst);
      result.cancelled = true;
      return result;
    }
    forest = MinimalFeasibleSubforest(g, ic, mst);
  }
  std::sort(forest.begin(), forest.end());

  std::vector<char> in_forest(static_cast<std::size_t>(m), 0);
  for (const EdgeId id : forest) in_forest[static_cast<std::size_t>(id)] = 1;

  const std::vector<NodeId> terminals = ic.Terminals();
  ForestAdj adj(static_cast<std::size_t>(n));
  BuildAdj(g, forest, adj);

  Scratch s(n);
  std::vector<NodeId> side1_nodes, side2_nodes;

  using Item = std::pair<Weight, NodeId>;

  const bool focused = options.focus != nullptr && !options.focus->empty() &&
                       options.focus_radius >= 0;
  std::vector<char> near_focus;           // nodes within focus_radius hops
  std::vector<NodeId> frontier, next_frontier;

  for (int pass = 0; pass < options.max_passes; ++pass) {
    bool improved = false;
    const std::vector<EdgeId> snapshot = forest;  // edge-id order
    if (focused) {
      // Re-mark the focus neighbourhood against the current forest: a BFS
      // over forest adjacency, depth-limited to focus_radius. Moves
      // accepted later in the pass change the forest; the stale marking
      // then merely skips some candidates until the next pass — a smaller
      // move set, never a wrong one.
      near_focus.assign(static_cast<std::size_t>(n), 0);
      frontier.clear();
      for (const NodeId v : *options.focus) {
        if (v >= 0 && v < n && !near_focus[static_cast<std::size_t>(v)]) {
          near_focus[static_cast<std::size_t>(v)] = 1;
          frontier.push_back(v);
        }
      }
      for (int depth = 0; depth < options.focus_radius && !frontier.empty();
           ++depth) {
        next_frontier.clear();
        for (const NodeId u : frontier) {
          for (const auto& [nb, id] : adj[static_cast<std::size_t>(u)]) {
            if (!near_focus[static_cast<std::size_t>(nb)]) {
              near_focus[static_cast<std::size_t>(nb)] = 1;
              next_frontier.push_back(nb);
            }
          }
        }
        frontier.swap(next_frontier);
      }
    }
    for (const EdgeId e : snapshot) {
      if (IsCancelled(options.cancel)) {
        result.cancelled = true;
        break;
      }
      if (!in_forest[static_cast<std::size_t>(e)]) continue;  // removed earlier
      const auto& edge = g.GetEdge(e);
      if (focused && !near_focus[static_cast<std::size_t>(edge.u)] &&
          !near_focus[static_cast<std::size_t>(edge.v)]) {
        continue;  // outside the delta's neighbourhood
      }

      // Split e's tree into its two sides.
      ++s.cur;
      const std::uint32_t c1 = s.cur;
      MarkSide(adj, edge.u, e, s.side1, c1, side1_nodes);
      ++s.cur;
      const std::uint32_t c2 = s.cur;
      MarkSide(adj, edge.v, e, s.side2, c2, side2_nodes);

      // A label is broken by the removal iff it has terminals on both
      // sides (terminals in other trees are unaffected).
      bool broken = false;
      std::map<Label, std::pair<char, char>> hit;
      for (const NodeId t : terminals) {
        const auto tz = static_cast<std::size_t>(t);
        const bool in1 = s.side1[tz] == c1;
        const bool in2 = s.side2[tz] == c2;
        if (!in1 && !in2) continue;
        auto& h = hit[ic.LabelOf(t)];
        if (in1) h.first = 1;
        if (in2) h.second = 1;
        if (h.first && h.second) {
          broken = true;
          break;
        }
      }

      if (!broken) {
        // remove move: a pure win of w(e).
        in_forest[static_cast<std::size_t>(e)] = 0;
        forest.erase(std::find(forest.begin(), forest.end(), e));
        BuildAdj(g, forest, adj);
        improved = true;
        ++result.moves;
        continue;
      }
      if (edge.w <= 1) continue;  // any reconnection costs >= 1: no win

      // swap move: cheapest reconnection in the metric where surviving
      // forest edges are free. Multi-source Dijkstra from side1, early
      // exit at the first settled side2 node.
      ++result.searches;
      ++s.cur;
      const std::uint32_t cd = s.cur;
      std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
      for (const NodeId src : side1_nodes) {
        const auto sz = static_cast<std::size_t>(src);
        s.seen[sz] = cd;
        s.dist[sz] = 0;
        s.parent[sz] = kNoEdge;
        heap.push({0, src});
      }
      NodeId target = kNoNode;
      Weight cost = kInfWeight;
      std::size_t pops = 0;
      while (!heap.empty()) {
        if (options.cancel != nullptr && (++pops & 0xFFFu) == 0 &&
            options.cancel->Expired()) {
          result.cancelled = true;
          break;
        }
        const auto [d, v] = heap.top();
        heap.pop();
        const auto vz = static_cast<std::size_t>(v);
        if (d > s.dist[vz]) continue;
        if (s.side2[vz] == c2) {
          target = v;
          cost = d;
          break;
        }
        if (d >= edge.w) break;  // cannot beat keeping e
        for (const auto& inc : g.Neighbors(v)) {
          const bool free = inc.edge != e &&
                            in_forest[static_cast<std::size_t>(inc.edge)];
          const Weight nd = d + (free ? 0 : g.GetEdge(inc.edge).w);
          const auto nz = static_cast<std::size_t>(inc.neighbor);
          if (s.seen[nz] == cd && nd >= s.dist[nz]) continue;
          s.seen[nz] = cd;
          s.dist[nz] = nd;
          s.parent[nz] = inc.edge;
          heap.push({nd, inc.neighbor});
        }
      }
      if (result.cancelled) break;
      if (target == kNoNode || cost >= edge.w) continue;

      // Accept: drop e, add the path's non-forest edges union-guarded over
      // the surviving forest (a simple path can tunnel through several
      // trees; the guard keeps the result cycle-free).
      in_forest[static_cast<std::size_t>(e)] = 0;
      forest.erase(std::find(forest.begin(), forest.end(), e));
      UnionFind uf(n);
      for (const EdgeId id : forest) {
        const auto& fe = g.GetEdge(id);
        uf.Union(fe.u, fe.v);
      }
      NodeId v = target;
      while (s.parent[static_cast<std::size_t>(v)] != kNoEdge) {
        const EdgeId pe = s.parent[static_cast<std::size_t>(v)];
        const auto& pedge = g.GetEdge(pe);
        if (!in_forest[static_cast<std::size_t>(pe)] &&
            uf.Union(pedge.u, pedge.v)) {
          in_forest[static_cast<std::size_t>(pe)] = 1;
          forest.push_back(pe);
        }
        v = (pedge.u == v) ? pedge.v : pedge.u;
      }
      std::sort(forest.begin(), forest.end());
      BuildAdj(g, forest, adj);
      improved = true;
      ++result.moves;
    }
    if (result.cancelled) break;
    ++result.passes;
    if (!improved) break;
  }

  std::sort(forest.begin(), forest.end());
  result.forest = std::move(forest);
  return result;
}

}  // namespace dsf::reference
