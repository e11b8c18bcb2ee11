// Test oracles for steiner/: minimality of a feasible forest, equivalence of
// two IC instances, and the stretch of a metric spanner. Tests hold the
// library's outputs to these definitions. Test code only: nothing in src/
// needs them.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <queue>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "graph/graph.hpp"
#include "steiner/instance.hpp"
#include "steiner/spanner.hpp"
#include "steiner/validate.hpp"

namespace dsf {

// True iff F is feasible AND removing any single edge breaks feasibility.
inline bool IsMinimalFeasible(const Graph& g, const IcInstance& ic,
                              std::span<const EdgeId> f) {
  if (!IsFeasible(g, ic, f)) return false;
  std::vector<EdgeId> reduced(f.begin(), f.end());
  for (std::size_t i = 0; i < reduced.size(); ++i) {
    std::vector<EdgeId> without = reduced;
    without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
    if (IsFeasible(g, ic, without)) return false;
  }
  return true;
}

// True iff the two instances admit exactly the same feasible edge sets.
// (Checked structurally: same grouping of terminals into components after
// dropping singletons.)
inline bool EquivalentInstances(const IcInstance& a, const IcInstance& b) {
  if (a.NumNodes() != b.NumNodes()) return false;
  const IcInstance ma = MakeMinimal(a);
  const IcInstance mb = MakeMinimal(b);
  // Group terminals by label; the grouping (as a set partition) must match.
  const auto group = [](const IcInstance& ic) {
    std::map<Label, std::vector<NodeId>> g;
    for (NodeId v = 0; v < ic.NumNodes(); ++v) {
      if (ic.IsTerminal(v)) g[ic.LabelOf(v)].push_back(v);
    }
    std::set<std::vector<NodeId>> parts;
    for (auto& [l, nodes] : g) parts.insert(nodes);
    return parts;
  };
  return group(ma) == group(mb);
}

// Stretch of the spanner w.r.t. the metric: max over pairs of
// (spanner distance) / (metric distance). Returns 1.0 for m <= 1; a
// DSF_CHECK failure when the spanner disconnects a finite-distance pair.
inline double SpannerStretch(const std::vector<std::vector<Weight>>& dist,
                             const std::vector<MetricSpannerEdge>& spanner) {
  const int m = static_cast<int>(dist.size());
  if (m <= 1) return 1.0;
  std::vector<std::vector<std::pair<int, Weight>>> adj(
      static_cast<std::size_t>(m));
  for (const auto& e : spanner) {
    adj[static_cast<std::size_t>(e.a)].push_back({e.b, e.w});
    adj[static_cast<std::size_t>(e.b)].push_back({e.a, e.w});
  }
  // Dijkstra over the spanner from `source`.
  const auto distances = [&](int source) {
    std::vector<Weight> d(static_cast<std::size_t>(m), kInfWeight);
    using Entry = std::pair<Weight, int>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
    d[static_cast<std::size_t>(source)] = 0;
    pq.push({0, source});
    while (!pq.empty()) {
      const auto [du, u] = pq.top();
      pq.pop();
      if (du != d[static_cast<std::size_t>(u)]) continue;
      for (const auto& [v, w] : adj[static_cast<std::size_t>(u)]) {
        if (du + w < d[static_cast<std::size_t>(v)]) {
          d[static_cast<std::size_t>(v)] = du + w;
          pq.push({d[static_cast<std::size_t>(v)], v});
        }
      }
    }
    return d;
  };
  double stretch = 1.0;
  for (int a = 0; a < m; ++a) {
    const auto d = distances(a);
    for (int b = 0; b < m; ++b) {
      const Weight metric =
          dist[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
      if (a == b || metric >= kInfWeight || metric == 0) continue;
      DSF_CHECK_MSG(d[static_cast<std::size_t>(b)] < kInfWeight,
                    "spanner disconnected a finite-distance pair");
      stretch = std::max(
          stretch, static_cast<double>(d[static_cast<std::size_t>(b)]) /
                       static_cast<double>(metric));
    }
  }
  return stretch;
}

}  // namespace dsf
