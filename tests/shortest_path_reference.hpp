// Differential references for graph/shortest_paths.cpp and
// graph/properties.cpp, shared by test_shortest_paths and test_properties,
// and the plain BFS and subgraph-components oracles that test_congest and
// test_mst also check against. Test code only: nothing in src/ needs them.
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <queue>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "graph/shortest_paths.hpp"
#include "graph/union_find.hpp"
#include "workload/generators.hpp"

namespace dsf {

// Unweighted BFS from `source`: hop distances and parents.
struct BfsTreeResult {
  NodeId source = kNoNode;
  std::vector<int> depth;  // -1 if unreachable
  std::vector<NodeId> parent;
  std::vector<EdgeId> parent_edge;
};

inline BfsTreeResult Bfs(const Graph& g, NodeId source) {
  const auto n = static_cast<std::size_t>(g.NumNodes());
  BfsTreeResult t;
  t.source = source;
  t.depth.assign(n, -1);
  t.parent.assign(n, kNoNode);
  t.parent_edge.assign(n, kNoEdge);
  std::queue<NodeId> q;
  t.depth[static_cast<std::size_t>(source)] = 0;
  q.push(source);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (const auto& inc : g.Neighbors(u)) {
      const auto ni = static_cast<std::size_t>(inc.neighbor);
      if (t.depth[ni] == -1) {
        t.depth[ni] = t.depth[static_cast<std::size_t>(u)] + 1;
        t.parent[ni] = u;
        t.parent_edge[ni] = inc.edge;
        q.push(inc.neighbor);
      }
    }
  }
  return t;
}

// Connected components of the subgraph (V, subset).
inline Components SubgraphComponents(const Graph& g,
                                     std::span<const EdgeId> subset) {
  UnionFind uf(g.NumNodes());
  for (const EdgeId id : subset) {
    const auto& e = g.GetEdge(id);
    uf.Union(e.u, e.v);
  }
  Components c;
  c.comp.assign(static_cast<std::size_t>(g.NumNodes()), -1);
  std::vector<int> remap(static_cast<std::size_t>(g.NumNodes()), -1);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const int root = uf.Find(v);
    if (remap[static_cast<std::size_t>(root)] == -1) {
      remap[static_cast<std::size_t>(root)] = c.count++;
    }
    c.comp[static_cast<std::size_t>(v)] = remap[static_cast<std::size_t>(root)];
  }
  return c;
}

// Lexicographic-heap Dijkstra: a (dist, hops, node) min-heap that re-pushes
// a node on every label change, so each label is the lexicographic minimum
// by construction. Its trees define the canonical labeling (DESIGN.md §2)
// that the radix-queue `Dijkstra` must reproduce.
inline ShortestPathTree ReferenceDijkstra(const Graph& g, NodeId source) {
  const auto n = static_cast<std::size_t>(g.NumNodes());
  ShortestPathTree t;
  t.source = source;
  t.dist.assign(n, kInfWeight);
  t.parent.assign(n, kNoNode);
  t.parent_edge.assign(n, kNoEdge);
  t.hops.assign(n, -1);

  using Entry = std::tuple<Weight, int, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  t.dist[static_cast<std::size_t>(source)] = 0;
  t.hops[static_cast<std::size_t>(source)] = 0;
  pq.push({0, 0, source});
  while (!pq.empty()) {
    const auto [d, h, u] = pq.top();
    pq.pop();
    if (d != t.dist[static_cast<std::size_t>(u)] ||
        h != t.hops[static_cast<std::size_t>(u)]) {
      continue;
    }
    for (const auto& inc : g.Neighbors(u)) {
      const Weight nd = d + g.GetEdge(inc.edge).w;
      const int nh = h + 1;
      const auto vi = static_cast<std::size_t>(inc.neighbor);
      const bool better =
          nd < t.dist[vi] || (nd == t.dist[vi] && nh < t.hops[vi]) ||
          (nd == t.dist[vi] && nh == t.hops[vi] && u < t.parent[vi]);
      if (better) {
        t.dist[vi] = nd;
        t.hops[vi] = nh;
        t.parent[vi] = u;
        t.parent_edge[vi] = inc.edge;
        pq.push({nd, nh, inc.neighbor});
      }
    }
  }
  return t;
}

// The topology of `g` with every weight redrawn from {1, 63, 64, 65, 2^40}:
// sums of these cross the radix queue's 64-aligned key blocks at every
// step, and a 2^40 edge jumps dozens of its buckets at once.
inline Graph WithBlockBoundaryWeights(const Graph& g, std::uint64_t seed) {
  constexpr Weight kWeights[] = {1, 63, 64, 65, Weight{1} << 40};
  SplitMix64 rng(seed);
  std::vector<Edge> edges = g.Edges();
  for (Edge& e : edges) e.w = kWeights[rng.NextBelow(std::size(kWeights))];
  return MakeGraph(g.NumNodes(), edges);
}

// Every GeneratorRegistry family at its default (small) size, three salts
// each. Families with a [min_w, max_w] range are also drawn with all-unit
// weights (every tie at once) and with weights up to 10^6, and every
// family's default graphs once more with WithBlockBoundaryWeights.
inline std::vector<std::pair<std::string, Graph>> RegistryGraphs() {
  using ParamList = std::vector<std::pair<std::string, std::string>>;
  std::vector<std::pair<std::string, Graph>> out;
  for (const std::string_view name : GeneratorRegistry::Names()) {
    std::vector<ParamList> variants{{}};
    for (const ParamSpec& spec : GeneratorRegistry::Get(name).params) {
      if (spec.name == "max_w") {
        variants.push_back({{"min_w", "1"}, {"max_w", "1"}});
        variants.push_back({{"max_w", "1000000"}});
      }
    }
    for (const ParamList& weights : variants) {
      for (int salt = 0; salt < 3; ++salt) {
        ParamList params = weights;
        params.push_back({"salt", std::to_string(salt)});
        std::string label(name);
        for (const auto& [key, value] : params) {
          label += " " + key + "=" + value;
        }
        out.emplace_back(label, BuildGenerator(name, params, 17));
      }
    }
    for (int salt = 0; salt < 3; ++salt) {
      const ParamList params{{"salt", std::to_string(salt)}};
      out.emplace_back(
          std::string(name) + " salt=" + std::to_string(salt) +
              " weights={1,63,64,65,2^40}",
          WithBlockBoundaryWeights(BuildGenerator(name, params, 17),
                                   static_cast<std::uint64_t>(salt)));
    }
  }
  return out;
}

}  // namespace dsf
