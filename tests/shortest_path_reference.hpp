// Differential references for graph/shortest_paths.cpp and
// graph/properties.cpp, shared by test_shortest_paths and test_properties.
#pragma once

#include <functional>
#include <queue>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/shortest_paths.hpp"
#include "workload/generators.hpp"

namespace dsf {

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

// Every GeneratorRegistry family at its default (small) size, three salts
// each. Families with a [min_w, max_w] range are also drawn with all-unit
// weights (every tie at once) and with weights up to 10^6.
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
  }
  return out;
}

}  // namespace dsf
