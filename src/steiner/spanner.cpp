#include "steiner/spanner.hpp"

#include <algorithm>
#include <queue>
#include <tuple>

#include "common/check.hpp"

namespace dsf {

namespace {

// Dijkstra over an adjacency-list spanner graph.
std::vector<Weight> SpannerDistances(
    int m, const std::vector<std::vector<std::pair<int, Weight>>>& adj,
    int source) {
  std::vector<Weight> d(static_cast<std::size_t>(m), kInfWeight);
  using Entry = std::pair<Weight, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  d[static_cast<std::size_t>(source)] = 0;
  pq.push({0, source});
  while (!pq.empty()) {
    const auto [dist, u] = pq.top();
    pq.pop();
    if (dist != d[static_cast<std::size_t>(u)]) continue;
    for (const auto& [v, w] : adj[static_cast<std::size_t>(u)]) {
      if (dist + w < d[static_cast<std::size_t>(v)]) {
        d[static_cast<std::size_t>(v)] = dist + w;
        pq.push({d[static_cast<std::size_t>(v)], v});
      }
    }
  }
  return d;
}

}  // namespace

std::vector<MetricSpannerEdge> GreedyMetricSpanner(
    const std::vector<std::vector<Weight>>& dist, int stretch_k) {
  const int m = static_cast<int>(dist.size());
  DSF_CHECK(stretch_k >= 1);
  std::vector<std::tuple<Weight, int, int>> pairs;
  for (int a = 0; a < m; ++a) {
    DSF_CHECK(static_cast<int>(dist[static_cast<std::size_t>(a)].size()) == m);
    for (int b = a + 1; b < m; ++b) {
      const Weight w = dist[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
      if (w < kInfWeight) pairs.push_back({w, a, b});
    }
  }
  std::sort(pairs.begin(), pairs.end());

  const Weight stretch = 2 * static_cast<Weight>(stretch_k) - 1;
  std::vector<std::vector<std::pair<int, Weight>>> adj(
      static_cast<std::size_t>(m));
  std::vector<MetricSpannerEdge> result;
  for (const auto& [w, a, b] : pairs) {
    // Greedy criterion: keep (a, b) unless the current spanner already
    // provides a path of weight <= stretch * w.
    const auto da = SpannerDistances(m, adj, a);
    if (da[static_cast<std::size_t>(b)] <= stretch * w) continue;
    adj[static_cast<std::size_t>(a)].push_back({b, w});
    adj[static_cast<std::size_t>(b)].push_back({a, w});
    result.push_back(MetricSpannerEdge{a, b, w});
  }
  return result;
}

}  // namespace dsf
