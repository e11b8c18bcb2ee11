#include "graph/shortest_paths.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "shortest_path_reference.hpp"

namespace dsf {
namespace {

Graph Diamond() {
  // 0 -1- 1 -1- 3,  0 -3- 2 -1- 3: two 0->3 routes of weight 2 and 4.
  return MakeGraph(4, {{0, 1, 1}, {1, 3, 1}, {0, 2, 3}, {2, 3, 1}});
}

TEST(DijkstraTest, DistancesOnDiamond) {
  const auto t = Dijkstra(Diamond(), 0);
  EXPECT_EQ(t.dist[0], 0);
  EXPECT_EQ(t.dist[1], 1);
  EXPECT_EQ(t.dist[2], 3);
  EXPECT_EQ(t.dist[3], 2);
}

TEST(DijkstraTest, PathReconstruction) {
  const Graph g = Diamond();
  const auto t = Dijkstra(g, 0);
  const auto path = t.PathTo(3);
  ASSERT_EQ(path.size(), 2u);
  Weight total = 0;
  for (const EdgeId e : path) total += g.GetEdge(e).w;
  EXPECT_EQ(total, 2);
}

TEST(DijkstraTest, UnreachableNodes) {
  Graph g(3);
  g.AddEdge(0, 1, 5);
  g.Finalize();
  const auto t = Dijkstra(g, 0);
  EXPECT_FALSE(t.Reachable(2));
  EXPECT_TRUE(t.Reachable(1));
}

TEST(DijkstraTest, HopsPreferFewerAmongEqualWeight) {
  // 0-2 direct (weight 2) vs 0-1-2 (weights 1+1): equal weight, fewer hops
  // must be preferred.
  const Graph g = MakeGraph(3, {{0, 1, 1}, {1, 2, 1}, {0, 2, 2}});
  const auto t = Dijkstra(g, 0);
  EXPECT_EQ(t.dist[2], 2);
  EXPECT_EQ(t.hops[2], 1);
}

TEST(DijkstraTest, MatchesBruteForceOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(24, 0.15, 1, 30, rng);
    const auto t = Dijkstra(g, 0);
    // Bellman-Ford brute force.
    std::vector<Weight> bf(static_cast<std::size_t>(g.NumNodes()), kInfWeight);
    bf[0] = 0;
    for (int iter = 0; iter < g.NumNodes(); ++iter) {
      for (const auto& e : g.Edges()) {
        const auto ui = static_cast<std::size_t>(e.u);
        const auto vi = static_cast<std::size_t>(e.v);
        if (bf[ui] + e.w < bf[vi]) bf[vi] = bf[ui] + e.w;
        if (bf[vi] + e.w < bf[ui]) bf[ui] = bf[vi] + e.w;
      }
    }
    EXPECT_EQ(t.dist, bf) << "seed " << seed;
  }
}

// Every source of `g`: the radix-queue kernel must reproduce the reference
// heap's dist, hops, parent and parent_edge exactly.
void ExpectMatchesReference(const Graph& g, const std::string& label) {
  for (NodeId s = 0; s < g.NumNodes(); ++s) {
    const auto got = Dijkstra(g, s);
    const auto want = ReferenceDijkstra(g, s);
    ASSERT_EQ(got.source, want.source) << label << " source " << s;
    ASSERT_EQ(got.dist, want.dist) << label << " source " << s;
    ASSERT_EQ(got.hops, want.hops) << label << " source " << s;
    ASSERT_EQ(got.parent, want.parent) << label << " source " << s;
    ASSERT_EQ(got.parent_edge, want.parent_edge) << label << " source " << s;
  }
}

TEST(DijkstraTest, MatchesReferenceOnEveryGeneratorFamily) {
  for (const auto& [label, g] : RegistryGraphs()) {
    ExpectMatchesReference(g, label);
  }
}

TEST(DijkstraTest, MatchesReferenceWithParallelEdges) {
  // Parallel edges of equal and unequal weight: the first lightest edge in
  // the predecessor's adjacency order must win, as in the reference.
  const Graph g = MakeGraph(5, {{0, 1, 3},
                                {0, 1, 2},
                                {1, 0, 2},
                                {1, 2, 1},
                                {0, 2, 3},
                                {2, 0, 3},
                                {2, 3, 1},
                                {1, 3, 2},
                                {3, 4, 4},
                                {3, 4, 4},
                                {2, 4, 5}});
  ExpectMatchesReference(g, "parallel");
}

TEST(DijkstraTest, MatchesReferenceOnDisconnectedGraph) {
  SplitMix64 rng(9);
  const Graph a = MakeConnectedRandom(20, 0.2, 1, 3, rng);
  std::vector<Edge> edges = a.Edges();
  for (NodeId v = 20; v + 1 < 30; ++v) edges.push_back({v, v + 1, 2});
  const Graph g = MakeGraph(31, edges);  // node 30 is isolated
  ExpectMatchesReference(g, "disconnected");
  EXPECT_FALSE(Dijkstra(g, 0).Reachable(25));
  EXPECT_EQ(Dijkstra(g, 30).hops[0], -1);
}

TEST(DijkstraTest, MatchesReferenceOnHeavyWeights) {
  // Distances far above 2^32 exercise the radix queue's high buckets.
  constexpr Weight kHeavy = Weight{1} << 40;
  SplitMix64 rng(12);
  const Graph g = MakeConnectedRandom(40, 0.1, kHeavy - 1000, kHeavy, rng);
  ExpectMatchesReference(g, "heavy");
}

TEST(DijkstraTest, StaysExactAcrossGraphSizes) {
  // The per-thread buckets grow on the large graph and are released on the
  // small one that follows; neither change may leak into the trees.
  SplitMix64 rng(13);
  const Graph large = MakeConnectedRandom(3000, 0.002, 1, 1000, rng);
  const Graph small = MakeConnectedRandom(12, 0.3, 1, 5, rng);
  for (const Graph* g : {&large, &small, &large}) {
    for (const NodeId s : {0, 7}) {
      const auto got = Dijkstra(*g, s);
      const auto want = ReferenceDijkstra(*g, s);
      ASSERT_EQ(got.dist, want.dist) << g->NumNodes() << " source " << s;
      ASSERT_EQ(got.hops, want.hops) << g->NumNodes() << " source " << s;
      ASSERT_EQ(got.parent, want.parent) << g->NumNodes() << " source " << s;
      ASSERT_EQ(got.parent_edge, want.parent_edge)
          << g->NumNodes() << " source " << s;
    }
  }
}

TEST(BfsTest, DepthsOnPath) {
  const auto t = Bfs(MakePath(5, 100), 0);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(t.depth[static_cast<std::size_t>(v)], v);
  }
}

TEST(BfsTest, DisconnectedMarksMinusOne) {
  Graph g(4);
  g.AddEdge(0, 1, 1);
  g.AddEdge(2, 3, 1);
  g.Finalize();
  const auto t = Bfs(g, 0);
  EXPECT_EQ(t.depth[1], 1);
  EXPECT_EQ(t.depth[2], -1);
  EXPECT_EQ(t.depth[3], -1);
}

TEST(ComponentsTest, CountsAndIndices) {
  Graph g(5);
  g.AddEdge(0, 1, 1);
  g.AddEdge(3, 4, 1);
  g.Finalize();
  const auto c = ConnectedComponents(g);
  EXPECT_EQ(c.count, 3);
  EXPECT_EQ(c.comp[0], c.comp[1]);
  EXPECT_EQ(c.comp[3], c.comp[4]);
  EXPECT_NE(c.comp[0], c.comp[2]);
  EXPECT_NE(c.comp[0], c.comp[3]);
}

TEST(ComponentsTest, SubgraphComponents) {
  const Graph g = MakeCycle(4);
  const std::vector<EdgeId> subset{0, 1};  // edges 0-1, 1-2
  const auto c = SubgraphComponents(g, subset);
  EXPECT_EQ(c.count, 2);
  EXPECT_EQ(c.comp[0], c.comp[1]);
  EXPECT_EQ(c.comp[1], c.comp[2]);
  EXPECT_NE(c.comp[0], c.comp[3]);
}

}  // namespace
}  // namespace dsf
