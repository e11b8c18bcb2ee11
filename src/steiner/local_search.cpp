#include "steiner/local_search.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <queue>
#include <utility>

#include "graph/union_find.hpp"
#include "steiner/mst.hpp"
#include "steiner/prune.hpp"
#include "steiner/validate.hpp"

namespace dsf {

namespace {

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

void BuildAdj(const Graph& g, const std::vector<EdgeId>& forest,
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
void MarkSide(const ForestAdj& adj, NodeId start, EdgeId skip,
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

// Tree nodes the per-edge path walks to split the forest edges a pass
// visits: each visited edge costs one walk of its whole tree. Walks every
// touched tree once, marking it in `mark` with `cur`.
template <class Visits>
long SplitWork(const Graph& g, const ForestAdj& adj,
               const std::vector<EdgeId>& forest, const Visits& visits,
               std::vector<std::uint32_t>& mark, std::uint32_t cur,
               std::vector<NodeId>& nodes) {
  long work = 0;
  for (const EdgeId e : forest) {
    const auto& edge = g.GetEdge(e);
    if (!visits(edge) || mark[static_cast<std::size_t>(edge.u)] == cur) {
      continue;
    }
    MarkSide(adj, edge.u, kNoEdge, mark, cur, nodes);
    long visited_ends = 0;  // each visited edge is seen from both ends
    for (const NodeId v : nodes) {
      for (const auto& [nb, id] : adj[static_cast<std::size_t>(v)]) {
        if (visits(g.GetEdge(id))) ++visited_ends;
      }
    }
    work += visited_ends / 2 * static_cast<long>(nodes.size());
  }
  return work;
}

// What the start of a pass knows about every forest edge e (DESIGN.md §3):
//   needed[e]  e is in the minimal feasible subforest, i.e. removing it
//              breaks a demand;
//   bound[e]   a lower bound on the cost of reconnecting e's two sides.
// For the bound, M is the spanning forest Kruskal builds over G when it
// takes the forest's edges first. A reconnection path crosses e's cut in M,
// and e is the only M edge across that cut, so the path pays for a non-M
// (hence non-forest) edge whose M-cycle holds e. Sweeping the non-M edges
// by (w, id) and giving each still-unset M edge on the swept edge's tree
// path that edge's weight sets bound[e] to the lightest such weight. The
// sweep stops at the heaviest forest edge: a bound at or above w(e) rules
// the swap out however large it is, so unset bounds stay kInfWeight.
// Removing non-needed edges keeps both facts true (a smaller forest still
// lies inside M); an accepted swap does not. The arrays and the edge order
// are set up by the first Compute, so a call that never needs the facts
// does not pay for them.
class PassFacts {
 public:
  void Compute(const Graph& g, const IcInstance& ic,
               const std::vector<EdgeId>& forest) {
    if (!ready_) Prepare(g);
    std::fill(needed_.begin(), needed_.end(), 0);
    for (const EdgeId e : MinimalFeasibleSubforest(g, ic, forest)) {
      needed_[static_cast<std::size_t>(e)] = 1;
    }

    std::fill(in_m_.begin(), in_m_.end(), 0);
    UnionFind uf(g.NumNodes());
    Weight heaviest = 0;
    for (const EdgeId e : forest) {
      const auto& edge = g.GetEdge(e);
      uf.Union(edge.u, edge.v);
      in_m_[static_cast<std::size_t>(e)] = 1;
      heaviest = std::max(heaviest, edge.w);
    }
    for (const EdgeId e : by_weight_) {
      const auto& edge = g.GetEdge(e);
      if (!in_m_[static_cast<std::size_t>(e)] && uf.Union(edge.u, edge.v)) {
        in_m_[static_cast<std::size_t>(e)] = 1;
      }
    }
    RootM(g);

    std::fill(bound_.begin(), bound_.end(), kInfWeight);
    for (const EdgeId e : by_weight_) {
      if (in_m_[static_cast<std::size_t>(e)]) continue;
      const auto& edge = g.GetEdge(e);
      if (edge.w >= heaviest) break;
      NodeId a = Top(edge.u);
      NodeId b = Top(edge.v);
      while (a != b) {
        // The deeper of two distinct tops sits strictly below the path's
        // lowest common ancestor, so its parent edge is on the path.
        if (depth_[static_cast<std::size_t>(a)] <
            depth_[static_cast<std::size_t>(b)]) {
          std::swap(a, b);
        }
        const auto az = static_cast<std::size_t>(a);
        bound_[static_cast<std::size_t>(parent_edge_[az])] = edge.w;
        jump_[az] = parent_[az];
        a = Top(a);
      }
    }
  }

  [[nodiscard]] bool Needed(EdgeId e) const {
    return needed_[static_cast<std::size_t>(e)] != 0;
  }
  [[nodiscard]] Weight Bound(EdgeId e) const {
    return bound_[static_cast<std::size_t>(e)];
  }

 private:
  void Prepare(const Graph& g) {
    const auto m = static_cast<std::size_t>(g.NumEdges());
    const auto n = static_cast<std::size_t>(g.NumNodes());
    by_weight_ = EdgesByWeight(g);
    needed_.resize(m);
    in_m_.resize(m);
    bound_.resize(m);
    parent_.resize(n);
    jump_.resize(n);
    depth_.resize(n);
    parent_edge_.resize(n);
    ready_ = true;
  }

  // Roots every tree of M at its smallest node (BFS over G's adjacency
  // restricted to M) and resets the path-jumping links: jump_[v] == v
  // while v's parent edge has no bound yet.
  void RootM(const Graph& g) {
    std::fill(depth_.begin(), depth_.end(), -1);
    std::iota(jump_.begin(), jump_.end(), 0);
    std::vector<NodeId> queue;
    queue.reserve(parent_.size());
    for (NodeId r = 0; r < g.NumNodes(); ++r) {
      if (depth_[static_cast<std::size_t>(r)] >= 0) continue;
      depth_[static_cast<std::size_t>(r)] = 0;
      parent_[static_cast<std::size_t>(r)] = kNoNode;
      parent_edge_[static_cast<std::size_t>(r)] = kNoEdge;
      queue.assign(1, r);
      for (std::size_t i = 0; i < queue.size(); ++i) {
        const NodeId u = queue[i];
        for (const auto& inc : g.Neighbors(u)) {
          const auto nz = static_cast<std::size_t>(inc.neighbor);
          if (!in_m_[static_cast<std::size_t>(inc.edge)] || depth_[nz] >= 0) {
            continue;
          }
          depth_[nz] = depth_[static_cast<std::size_t>(u)] + 1;
          parent_[nz] = u;
          parent_edge_[nz] = inc.edge;
          queue.push_back(inc.neighbor);
        }
      }
    }
  }

  // The nearest ancestor-or-self of v whose parent edge has no bound yet
  // (or v's root), with path compression.
  NodeId Top(NodeId v) {
    NodeId r = v;
    while (jump_[static_cast<std::size_t>(r)] != r) {
      r = jump_[static_cast<std::size_t>(r)];
    }
    while (jump_[static_cast<std::size_t>(v)] != r) {
      const NodeId next = jump_[static_cast<std::size_t>(v)];
      jump_[static_cast<std::size_t>(v)] = r;
      v = next;
    }
    return r;
  }

  bool ready_ = false;
  std::vector<EdgeId> by_weight_;  // every edge id in (w, id) order
  std::vector<char> needed_, in_m_;
  std::vector<Weight> bound_;
  std::vector<NodeId> parent_, jump_;
  std::vector<int> depth_;
  std::vector<EdgeId> parent_edge_;
};

}  // namespace

LocalSearchResult LocalSearchSteinerForest(const Graph& g,
                                           const IcInstance& ic,
                                           const LocalSearchOptions& options) {
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

  // `in_forest` is the incumbent; `forest` (sorted ids) and `adj` follow it
  // lazily, so remove moves between two splits cost O(1) each instead of a
  // rebuild.
  std::vector<char> in_forest(static_cast<std::size_t>(m), 0);
  for (const EdgeId id : forest) in_forest[static_cast<std::size_t>(id)] = 1;
  ForestAdj adj(static_cast<std::size_t>(n));
  BuildAdj(g, forest, adj);
  bool stale = false;
  const auto sync = [&] {
    if (!stale) return;
    std::erase_if(forest, [&](EdgeId id) {
      return !in_forest[static_cast<std::size_t>(id)];
    });
    BuildAdj(g, forest, adj);
    stale = false;
  };
  // remove move: a pure win of w(e).
  const auto remove = [&](EdgeId e) {
    in_forest[static_cast<std::size_t>(e)] = 0;
    stale = true;
    ++result.moves;
  };

  const std::vector<NodeId> terminals = ic.Terminals();
  PassFacts facts;
  Scratch s(n);
  std::vector<NodeId> side1_nodes, side2_nodes;

  using Item = std::pair<Weight, NodeId>;

  const bool focused = options.focus != nullptr && !options.focus->empty() &&
                       options.focus_radius >= 0;
  std::vector<char> near_focus;           // nodes within focus_radius hops
  std::vector<NodeId> frontier, next_frontier;
  const auto visits = [&](const Edge& edge) {
    return !focused || near_focus[static_cast<std::size_t>(edge.u)] ||
           near_focus[static_cast<std::size_t>(edge.v)];
  };

  for (int pass = 0; pass < options.max_passes; ++pass) {
    const long moves_before = result.moves;
    sync();
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
    // The facts cost O(n + m) per pass, so a pass computes them only when
    // the per-edge path would walk at least n + m tree nodes just splitting
    // the edges it visits; a small focus on a large graph stays on that
    // path. They describe the forest until the pass's first accepted swap,
    // after which every edge takes the split-test-search path.
    ++s.cur;
    bool facts_valid = SplitWork(g, adj, forest, visits, s.side1, s.cur,
                                 side1_nodes) >= static_cast<long>(n) + m;
    if (facts_valid) facts.Compute(g, ic, forest);
    for (const EdgeId e : snapshot) {
      if (IsCancelled(options.cancel)) {
        result.cancelled = true;
        break;
      }
      if (!in_forest[static_cast<std::size_t>(e)]) continue;  // removed earlier
      const auto& edge = g.GetEdge(e);
      if (!visits(edge)) continue;  // outside the delta's neighbourhood

      if (facts_valid) {
        if (!facts.Needed(e)) {
          remove(e);
          continue;
        }
        // Every reconnection costs at least the bound, which is at least
        // 1: the search below could not accept.
        if (facts.Bound(e) >= edge.w) continue;
      }

      // Split e's tree into its two sides.
      sync();
      ++s.cur;
      const std::uint32_t c1 = s.cur;
      MarkSide(adj, edge.u, e, s.side1, c1, side1_nodes);
      ++s.cur;
      const std::uint32_t c2 = s.cur;
      MarkSide(adj, edge.v, e, s.side2, c2, side2_nodes);

      if (!facts_valid) {
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
          remove(e);
          continue;
        }
        if (edge.w <= 1) continue;  // any reconnection costs >= 1: no win
      }

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
      stale = true;
      sync();
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
      stale = true;  // adj
      facts_valid = false;
      ++result.moves;
    }
    if (result.cancelled) break;
    ++result.passes;
    if (result.moves == moves_before) break;
  }

  sync();
  result.forest = std::move(forest);
  return result;
}

}  // namespace dsf
