#include "solve/incremental.hpp"

#include <algorithm>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "graph/union_find.hpp"
#include "solve/solver_spec.hpp"
#include "steiner/prune.hpp"
#include "steiner/validate.hpp"

namespace dsf {
namespace {

// Heap entry of the attach pass: (distance in the forest-is-free metric,
// node). The node id breaks ties, so the pass is deterministic.
using HeapEntry = std::pair<Weight, NodeId>;

// Cheapest path from the tree containing `source` to any node whose
// union-find root is marked in `target_root`, in the metric where edges
// already in `in_forest` cost 0 (the source's whole tree is explored at
// distance 0, and paths may tunnel through other trees for free — the
// cycle guard at add time keeps the result a forest). Returns the hit node
// (kNoNode when unreachable) and fills parent_edge[] along the way.
NodeId StoppedDijkstra(const Graph& g, NodeId source,
                       const std::vector<char>& in_forest, UnionFind& uf,
                       const std::vector<char>& target_root,
                       std::vector<EdgeId>& parent_edge) {
  const auto n = static_cast<std::size_t>(g.NumNodes());
  std::vector<Weight> dist(n, kInfWeight);
  std::vector<char> done(n, 0);
  parent_edge.assign(n, kNoEdge);
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  dist[static_cast<std::size_t>(source)] = 0;
  heap.emplace(0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (done[static_cast<std::size_t>(u)]) continue;
    done[static_cast<std::size_t>(u)] = 1;
    if (target_root[static_cast<std::size_t>(uf.Find(u))]) return u;
    for (const auto& inc : g.Neighbors(u)) {
      const Weight w =
          in_forest[static_cast<std::size_t>(inc.edge)] ? 0 : g.GetEdge(inc.edge).w;
      const auto vi = static_cast<std::size_t>(inc.neighbor);
      if (d + w < dist[vi]) {
        dist[vi] = d + w;
        parent_edge[vi] = inc.edge;
        heap.emplace(d + w, inc.neighbor);
      }
    }
  }
  return kNoNode;
}

// Terminals of `ic` grouped by component, in one pass over the nodes:
// groups in increasing label order, each in increasing node order.
struct TerminalGroups {
  std::vector<NodeId> nodes;
  std::vector<std::size_t> start;  // group i is nodes[start[i], start[i + 1])

  [[nodiscard]] std::size_t Count() const { return start.size() - 1; }
  [[nodiscard]] std::span<const NodeId> Group(std::size_t i) const {
    return std::span<const NodeId>(nodes).subspan(start[i],
                                                  start[i + 1] - start[i]);
  }
};

TerminalGroups GroupTerminals(const IcInstance& ic) {
  std::vector<std::pair<Label, NodeId>> terminals;
  for (NodeId v = 0; v < ic.NumNodes(); ++v) {
    if (ic.IsTerminal(v)) terminals.emplace_back(ic.LabelOf(v), v);
  }
  std::sort(terminals.begin(), terminals.end());
  TerminalGroups groups;
  groups.nodes.reserve(terminals.size());
  for (std::size_t i = 0; i < terminals.size(); ++i) {
    if (i == 0 || terminals[i].first != terminals[i - 1].first) {
      groups.start.push_back(i);
    }
    groups.nodes.push_back(terminals[i].second);
  }
  groups.start.push_back(terminals.size());
  return groups;
}

}  // namespace

RepairOutcome RepairForest(const Graph& g, const IcInstance& revised,
                           std::span<const EdgeId> base_forest) {
  RepairOutcome out;
  const int n = g.NumNodes();
  if (!g.Finalized() || revised.NumNodes() != n) return out;
  // A base forest fetched by cache key may describe a different graph than
  // the one the caller framed (a mis-supplied base key): reject out-of-range
  // edge ids and cycles here so the caller degrades to a cold solve instead
  // of tripping a check deeper in the pipeline.
  for (const EdgeId e : base_forest) {
    if (e < 0 || e >= g.NumEdges()) return out;
  }
  if (!g.IsForest(base_forest)) return out;

  // Pass 1 (prune): within each base tree, a group of >= 2 same-component
  // terminals keeps its connecting path alive via a synthetic label; every
  // other base edge — those only needed by demands no longer present — is
  // dropped by the minimal-subforest rule. The synthetic instance is
  // feasible for the base forest by construction (each group lives in one
  // tree), which is MinimalFeasibleSubforest's precondition.
  UnionFind base_uf(n);
  for (const EdgeId e : base_forest) {
    const Edge& edge = g.GetEdge(e);
    base_uf.Union(edge.u, edge.v);
  }
  IcInstance kept;
  kept.labels.assign(static_cast<std::size_t>(n), kNoLabel);
  Label next_synthetic = 0;
  const TerminalGroups components = GroupTerminals(revised);
  std::vector<std::pair<int, NodeId>> by_tree;  // (root, terminal)
  for (std::size_t c = 0; c < components.Count(); ++c) {
    // Terminals of this component, grouped by their base-forest tree.
    by_tree.clear();
    for (const NodeId v : components.Group(c)) {
      by_tree.emplace_back(base_uf.Find(v), v);
    }
    std::sort(by_tree.begin(), by_tree.end());
    for (std::size_t i = 0; i < by_tree.size();) {
      std::size_t j = i;
      while (j < by_tree.size() && by_tree[j].first == by_tree[i].first) ++j;
      if (j - i >= 2) {
        for (std::size_t k = i; k < j; ++k) {
          kept.labels[static_cast<std::size_t>(by_tree[k].second)] = next_synthetic;
        }
        ++next_synthetic;
      }
      i = j;
    }
  }
  std::vector<EdgeId> forest = MinimalFeasibleSubforest(g, kept, base_forest);
  out.dropped = static_cast<int>(base_forest.size() - forest.size());

  // Pass 2 (attach): reconnect every component still split across trees.
  std::vector<char> in_forest(static_cast<std::size_t>(g.NumEdges()), 0);
  for (const EdgeId e : forest) in_forest[static_cast<std::size_t>(e)] = 1;
  for (const EdgeId e : base_forest) {
    if (in_forest[static_cast<std::size_t>(e)]) continue;  // survived the prune
    const Edge& edge = g.GetEdge(e);
    out.touched.push_back(edge.u);
    out.touched.push_back(edge.v);
  }
  UnionFind uf(n);
  for (const EdgeId e : forest) {
    const Edge& edge = g.GetEdge(e);
    uf.Union(edge.u, edge.v);
  }
  std::vector<char> target_root(static_cast<std::size_t>(n), 0);
  std::vector<EdgeId> parent_edge;
  for (std::size_t c = 0; c < components.Count(); ++c) {
    const std::span<const NodeId> terminals = components.Group(c);
    if (terminals.size() < 2) continue;
    // Attach the core (the tree of the smallest terminal) to the remaining
    // trees one path at a time; each path merges at least one tree in.
    bool connected = false;
    while (!connected) {
      const int core = uf.Find(terminals.front());
      std::vector<int> other_roots;
      for (const NodeId t : terminals) {
        const int root = uf.Find(t);
        if (root != core) other_roots.push_back(root);
      }
      if (other_roots.empty()) {
        connected = true;
        break;
      }
      for (const int root : other_roots) {
        target_root[static_cast<std::size_t>(root)] = 1;
      }
      const NodeId hit = StoppedDijkstra(g, terminals.front(), in_forest, uf,
                                         target_root, parent_edge);
      for (const int root : other_roots) {
        target_root[static_cast<std::size_t>(root)] = 0;
      }
      if (hit == kNoNode) return out;  // unreachable: cannot repair
      for (NodeId v = hit; parent_edge[static_cast<std::size_t>(v)] != kNoEdge;) {
        const EdgeId e = parent_edge[static_cast<std::size_t>(v)];
        const Edge& edge = g.GetEdge(e);
        if (!in_forest[static_cast<std::size_t>(e)] && uf.Union(edge.u, edge.v)) {
          in_forest[static_cast<std::size_t>(e)] = 1;
          forest.push_back(e);
          out.touched.push_back(edge.u);
          out.touched.push_back(edge.v);
        }
        v = edge.Other(v);
      }
      ++out.attached;
    }
  }

  std::sort(forest.begin(), forest.end());
  if (!g.IsForest(forest) || !IsFeasible(g, revised, forest)) return out;
  std::sort(out.touched.begin(), out.touched.end());
  out.touched.erase(std::unique(out.touched.begin(), out.touched.end()),
                    out.touched.end());
  out.forest = std::move(forest);
  out.ok = true;
  return out;
}

WarmStartPlan PrepareWarmStart(const SolveRequest& base,
                               std::span<const EdgeId> base_forest,
                               const InstanceDelta& delta) {
  WarmStartPlan plan;
  plan.revised = base;
  plan.revised.options.warm_start.clear();
  plan.revised.options.focus.clear();
  if (base.use_cr) {
    plan.revised.cr = ApplyDelta(base.cr, delta);
  } else {
    plan.revised.ic = ApplyDelta(base.ic, delta);
  }

  // Eligibility ladder; the first rung that fails names the cold reason.
  const SolverSpec spec = ParseSolverSpec(base.solver);
  if (spec.base != "local-search") {
    plan.cold_reason = "solver '" + spec.base + "' is not warm-startable";
    return plan;
  }
  // Demand size of the base: request pairs for CR (NumRequests counts both
  // directions), terminals for IC.
  const int demands =
      base.use_cr ? base.cr.NumRequests() / 2 : base.ic.NumTerminals();
  const double limit =
      std::max(1.0, kMaxDeltaFraction * static_cast<double>(demands));
  if (static_cast<double>(delta.Size()) > limit) {
    plan.cold_reason = "delta too large (" + std::to_string(delta.Size()) +
                       " edits vs " + std::to_string(demands) + " demands)";
    return plan;
  }
  const IcInstance revised_ic =
      base.use_cr ? CrToIc(plan.revised.cr) : plan.revised.ic;
  RepairOutcome repair = RepairForest(*base.graph, revised_ic, base_forest);
  if (!repair.ok) {
    plan.cold_reason = "repair failed";
    return plan;
  }
  plan.warm = true;
  plan.warm_weight = base.graph->WeightOf(repair.forest);
  plan.revised.options.warm_start = std::move(repair.forest);
  // Refinement focus: the repair's touched region plus the delta's own
  // nodes. The warm local-search run then only re-examines trees this
  // revise actually disturbed.
  std::vector<NodeId>& focus = plan.revised.options.focus;
  focus = std::move(repair.touched);
  for (const auto& [u, v] : delta.add_pairs) {
    focus.push_back(u);
    focus.push_back(v);
  }
  for (const auto& [u, v] : delta.remove_pairs) {
    focus.push_back(u);
    focus.push_back(v);
  }
  for (const auto& [v, label] : delta.add_terminals) focus.push_back(v);
  for (const NodeId v : delta.remove_terminals) focus.push_back(v);
  std::sort(focus.begin(), focus.end());
  focus.erase(std::unique(focus.begin(), focus.end()), focus.end());
  return plan;
}

}  // namespace dsf
