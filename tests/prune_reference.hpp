// Differential reference for steiner/prune.cpp: the minimal-subforest
// extraction as a std::map of label counts per node, folded bottom-up over
// each tree of the forest. An edge is kept iff the counts below it hold
// some label neither none nor all of its terminals. test_prune asserts the
// library's preorder-interval kernel returns the same edges. Test code
// only: nothing in src/ needs it.
#pragma once

#include <algorithm>
#include <map>
#include <span>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "graph/graph.hpp"
#include "steiner/instance.hpp"
#include "steiner/validate.hpp"

namespace dsf::reference {

inline std::vector<EdgeId> ReferenceMinimalFeasibleSubforest(
    const Graph& g, const IcInstance& ic, std::span<const EdgeId> forest) {
  DSF_CHECK_MSG(g.IsForest(forest), "input edge set contains a cycle");
  DSF_CHECK_MSG(IsFeasible(g, ic, forest),
                FeasibilityDiagnostic(g, ic, forest));

  const int n = g.NumNodes();
  std::vector<std::vector<std::pair<NodeId, EdgeId>>> adj(
      static_cast<std::size_t>(n));
  for (const EdgeId id : forest) {
    const auto& e = g.GetEdge(id);
    adj[static_cast<std::size_t>(e.u)].push_back({e.v, id});
    adj[static_cast<std::size_t>(e.v)].push_back({e.u, id});
  }

  std::map<Label, int> total;
  for (const Label l : ic.labels) {
    if (l != kNoLabel) ++total[l];
  }

  std::vector<EdgeId> kept;
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  std::vector<std::map<Label, int>> counts(static_cast<std::size_t>(n));
  for (NodeId r = 0; r < n; ++r) {
    if (visited[static_cast<std::size_t>(r)]) continue;
    std::vector<std::tuple<NodeId, NodeId, EdgeId>> order;  // node, parent, edge
    std::vector<std::tuple<NodeId, NodeId, EdgeId>> stack;
    stack.push_back({r, kNoNode, kNoEdge});
    visited[static_cast<std::size_t>(r)] = 1;
    while (!stack.empty()) {
      auto [u, p, pe] = stack.back();
      stack.pop_back();
      order.push_back({u, p, pe});
      for (const auto& [nb, id] : adj[static_cast<std::size_t>(u)]) {
        if (!visited[static_cast<std::size_t>(nb)]) {
          visited[static_cast<std::size_t>(nb)] = 1;
          stack.push_back({nb, u, id});
        }
      }
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      auto [u, p, pe] = *it;
      const Label lu = ic.LabelOf(u);
      if (lu != kNoLabel) ++counts[static_cast<std::size_t>(u)][lu];
      if (p != kNoNode) {
        bool split = false;
        for (const auto& [lab, c] : counts[static_cast<std::size_t>(u)]) {
          if (c > 0 && c < total[lab]) {
            split = true;
            break;
          }
        }
        if (split) kept.push_back(pe);
        auto& pc = counts[static_cast<std::size_t>(p)];
        for (const auto& [lab, c] : counts[static_cast<std::size_t>(u)]) {
          pc[lab] += c;
        }
        counts[static_cast<std::size_t>(u)].clear();
      }
    }
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

}  // namespace dsf::reference
