#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <set>

#include "graph/properties.hpp"
#include "graph/shortest_paths.hpp"

namespace dsf {
namespace {

TEST(GeneratorsTest, PathShape) {
  const Graph g = MakePath(5, 3);
  EXPECT_EQ(g.NumNodes(), 5);
  EXPECT_EQ(g.NumEdges(), 4);
  EXPECT_TRUE(IsConnected(g));
  EXPECT_EQ(ComputeParameters(g).unweighted_diameter, 4);
  EXPECT_EQ(g.TotalWeight(), 12);
}

TEST(GeneratorsTest, CycleShape) {
  const Graph g = MakeCycle(6);
  EXPECT_EQ(g.NumEdges(), 6);
  EXPECT_EQ(ComputeParameters(g).unweighted_diameter, 3);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(g.Degree(v), 2);
}

TEST(GeneratorsTest, StarShape) {
  const Graph g = MakeStar(7);
  EXPECT_EQ(g.NumEdges(), 6);
  EXPECT_EQ(g.Degree(0), 6);
  EXPECT_EQ(ComputeParameters(g).unweighted_diameter, 2);
}

TEST(GeneratorsTest, GridShape) {
  SplitMix64 rng(1);
  const Graph g = MakeGrid(3, 4, 1, 1, rng);
  EXPECT_EQ(g.NumNodes(), 12);
  EXPECT_EQ(g.NumEdges(), 3 * 3 + 2 * 4);  // horizontal + vertical
  EXPECT_TRUE(IsConnected(g));
  EXPECT_EQ(ComputeParameters(g).unweighted_diameter, 2 + 3);
}

TEST(GeneratorsTest, CompleteGraph) {
  SplitMix64 rng(2);
  const Graph g = MakeComplete(6, 1, 10, rng);
  EXPECT_EQ(g.NumEdges(), 15);
  EXPECT_EQ(ComputeParameters(g).unweighted_diameter, 1);
  for (const auto& e : g.Edges()) {
    EXPECT_GE(e.w, 1);
    EXPECT_LE(e.w, 10);
  }
}

TEST(GeneratorsTest, ConnectedRandomIsConnectedAndSimple) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(40, 0.05, 1, 100, rng);
    EXPECT_TRUE(IsConnected(g));
    std::set<std::pair<NodeId, NodeId>> seen;
    for (const auto& e : g.Edges()) {
      const auto key = std::minmax(e.u, e.v);
      EXPECT_TRUE(seen.insert({key.first, key.second}).second)
          << "parallel edge " << e.u << "-" << e.v;
    }
  }
}

TEST(GeneratorsTest, RandomGeometricConnected) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeRandomGeometric(50, 0.2, 1000, rng);
    EXPECT_TRUE(IsConnected(g));
    for (const auto& e : g.Edges()) EXPECT_GE(e.w, 1);
  }
}

TEST(GeneratorsTest, TreePlusChordsConnected) {
  SplitMix64 rng(7);
  const Graph g = MakeTreePlusChords(31, 10, 4, 9, rng);
  EXPECT_TRUE(IsConnected(g));
  EXPECT_GE(g.NumEdges(), 30);
  EXPECT_LE(g.NumEdges(), 40);
}

TEST(GeneratorsTest, CaterpillarShape) {
  const Graph g = MakeCaterpillar(4, 3, 2, 5);
  EXPECT_EQ(g.NumNodes(), 16);
  EXPECT_EQ(g.NumEdges(), 3 + 12);
  EXPECT_TRUE(IsConnected(g));
}

TEST(GeneratorsTest, SubdivisionScalesDistancesUniformly) {
  SplitMix64 rng(3);
  const Graph g = MakeConnectedRandom(12, 0.3, 1, 20, rng);
  const int pieces = 4;
  const Graph sub = SubdivideEdges(g, pieces);
  EXPECT_EQ(sub.NumNodes(), g.NumNodes() + g.NumEdges() * (pieces - 1));
  // Distances between original nodes scale exactly by `pieces`.
  const auto d0 = Dijkstra(g, 0);
  const auto d0s = Dijkstra(sub, 0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(d0s.dist[static_cast<std::size_t>(v)],
              d0.dist[static_cast<std::size_t>(v)] * pieces);
  }
}

TEST(GeneratorsTest, SubdivisionIncreasesShortestPathDiameter) {
  SplitMix64 rng(4);
  const Graph g = MakeConnectedRandom(10, 0.4, 1, 5, rng);
  const int s1 = ComputeParameters(g).shortest_path_diameter;
  const int s4 =
      ComputeParameters(SubdivideEdges(g, 4)).shortest_path_diameter;
  EXPECT_GE(s4, 2 * s1);
}

TEST(GeneratorsTest, DeterministicGivenSeed) {
  SplitMix64 rng_a(42);
  SplitMix64 rng_b(42);
  const Graph a = MakeConnectedRandom(30, 0.1, 1, 50, rng_a);
  const Graph b = MakeConnectedRandom(30, 0.1, 1, 50, rng_b);
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (EdgeId e = 0; e < a.NumEdges(); ++e) {
    EXPECT_EQ(a.GetEdge(e), b.GetEdge(e));
  }
}

}  // namespace
}  // namespace dsf
