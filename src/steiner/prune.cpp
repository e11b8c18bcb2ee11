#include "steiner/prune.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "steiner/validate.hpp"

namespace dsf {

std::vector<EdgeId> MinimalFeasibleSubforest(const Graph& g,
                                             const IcInstance& ic,
                                             std::span<const EdgeId> forest) {
  DSF_CHECK_MSG(g.IsForest(forest), "input edge set contains a cycle");
  DSF_CHECK_MSG(IsFeasible(g, ic, forest),
                FeasibilityDiagnostic(g, ic, forest));

  // CSR copy of the forest: u's (neighbor, edge) arcs are
  // arcs[start[u], start[u + 1]).
  const auto n = static_cast<std::size_t>(g.NumNodes());
  std::vector<int> start(n + 1, 0);
  for (const EdgeId id : forest) {
    const auto& e = g.GetEdge(id);
    ++start[static_cast<std::size_t>(e.u)];
    ++start[static_cast<std::size_t>(e.v)];
  }
  for (std::size_t u = 1; u <= n; ++u) start[u] += start[u - 1];
  std::vector<std::pair<NodeId, EdgeId>> arcs(2 * forest.size());
  for (const EdgeId id : forest) {
    const auto& e = g.GetEdge(id);
    arcs[static_cast<std::size_t>(--start[static_cast<std::size_t>(e.u)])] = {
        e.v, id};
    arcs[static_cast<std::size_t>(--start[static_cast<std::size_t>(e.v)])] = {
        e.u, id};
  }

  // One DFS numbers the forest's nodes in preorder, so the subtree of the
  // node at index t holds exactly the indices [t, t + size[t]). Isolated
  // nodes carry no edge and are skipped.
  struct Visit {
    NodeId node;
    int parent;   // preorder index of the parent, -1 at a root
    EdgeId edge;  // edge to the parent
  };
  std::vector<Visit> order;
  order.reserve(std::min(n, 2 * forest.size()));
  std::vector<Visit> stack;
  std::vector<char> seen(n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    if (seen[r] || start[r] == start[r + 1]) continue;
    seen[r] = 1;
    stack.push_back({static_cast<NodeId>(r), -1, kNoEdge});
    while (!stack.empty()) {
      const Visit v = stack.back();
      stack.pop_back();
      const int t = static_cast<int>(order.size());
      order.push_back(v);
      const auto u = static_cast<std::size_t>(v.node);
      for (int a = start[u]; a < start[u + 1]; ++a) {
        const auto& [nb, id] = arcs[static_cast<std::size_t>(a)];
        if (id == v.edge) continue;
        seen[static_cast<std::size_t>(nb)] = 1;
        stack.push_back({nb, t, id});
      }
    }
  }

  // Each terminal carries the first and last preorder index of its label.
  // Feasibility puts all of a label's terminals in one tree, so a subtree
  // holds some but not all of them iff one of them lies outside its interval.
  const std::size_t visited = order.size();
  std::vector<std::pair<Label, int>> terminals;  // (label, preorder index)
  for (std::size_t t = 0; t < visited; ++t) {
    const Label l = ic.LabelOf(order[t].node);
    if (l != kNoLabel) terminals.emplace_back(l, static_cast<int>(t));
  }
  std::sort(terminals.begin(), terminals.end());
  struct Fold {
    int size = 1;
    int first = std::numeric_limits<int>::max();  // min first index below
    int last = -1;                                // max last index below
  };
  std::vector<Fold> fold(visited);
  for (std::size_t i = 0; i < terminals.size();) {
    std::size_t j = i;
    while (j < terminals.size() && terminals[j].first == terminals[i].first) ++j;
    for (std::size_t k = i; k < j; ++k) {
      auto& f = fold[static_cast<std::size_t>(terminals[k].second)];
      f.first = terminals[i].second;
      f.last = terminals[j - 1].second;
    }
    i = j;
  }

  // Bottom-up: every child's index exceeds its parent's, so a reverse scan
  // folds each subtree before its root. Edge (v, parent) is kept iff the
  // labels below v reach outside [tin(v), tin(v) + size(v)).
  std::vector<EdgeId> kept;
  kept.reserve(forest.size());
  for (std::size_t t = visited; t-- > 0;) {
    const Visit& v = order[t];
    if (v.parent < 0) continue;
    const Fold& f = fold[t];
    const int tin = static_cast<int>(t);
    if (f.first < tin || f.last >= tin + f.size) kept.push_back(v.edge);
    Fold& p = fold[static_cast<std::size_t>(v.parent)];
    p.size += f.size;
    p.first = std::min(p.first, f.first);
    p.last = std::max(p.last, f.last);
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

}  // namespace dsf
