#include "steiner/spanner.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "steiner_reference.hpp"

namespace dsf {
namespace {

std::vector<std::vector<Weight>> RandomMetric(int m, SplitMix64& rng) {
  // Shortest-path closure of a random graph gives a genuine metric.
  const Graph g = MakeConnectedRandom(m, 0.3, 1, 50, rng);
  std::vector<std::vector<Weight>> d;
  for (NodeId v = 0; v < m; ++v) d.push_back(Dijkstra(g, v).dist);
  return d;
}

TEST(SpannerTest, StretchRespectedOnRandomMetrics) {
  for (int k = 1; k <= 4; ++k) {
    SplitMix64 rng(static_cast<std::uint64_t>(k));
    const auto dist = RandomMetric(16, rng);
    const auto spanner = GreedyMetricSpanner(dist, k);
    EXPECT_LE(SpannerStretch(dist, spanner), 2.0 * k - 1.0 + 1e-9) << "k=" << k;
  }
}

TEST(SpannerTest, StretchOneKeepsAllUsefulEdges) {
  SplitMix64 rng(7);
  const auto dist = RandomMetric(10, rng);
  const auto spanner = GreedyMetricSpanner(dist, 1);
  EXPECT_LE(SpannerStretch(dist, spanner), 1.0 + 1e-9);
}

TEST(SpannerTest, SparserThanCompleteGraphForLargerK) {
  SplitMix64 rng(3);
  const auto dist = RandomMetric(24, rng);
  const auto dense = GreedyMetricSpanner(dist, 1);
  const auto sparse = GreedyMetricSpanner(dist, 3);
  EXPECT_LT(sparse.size(), dense.size());
  // Theory: size O(m^{1+1/k}); for k = 3, comfortably below m^2 / 4.
  EXPECT_LT(sparse.size(), 24u * 24u / 4u);
}

TEST(SpannerTest, ConnectedOutput) {
  SplitMix64 rng(5);
  const auto dist = RandomMetric(12, rng);
  const auto spanner = GreedyMetricSpanner(dist, 2);
  // SpannerStretch throws if any finite pair is disconnected.
  EXPECT_NO_THROW(SpannerStretch(dist, spanner));
}

TEST(SpannerTest, TinyInputs) {
  const std::vector<std::vector<Weight>> one{{0}};
  EXPECT_TRUE(GreedyMetricSpanner(one, 2).empty());
  EXPECT_EQ(SpannerStretch(one, {}), 1.0);
  const std::vector<std::vector<Weight>> two{{0, 5}, {5, 0}};
  const auto sp = GreedyMetricSpanner(two, 2);
  ASSERT_EQ(sp.size(), 1u);
  EXPECT_EQ(sp[0].w, 5);
}

}  // namespace
}  // namespace dsf
