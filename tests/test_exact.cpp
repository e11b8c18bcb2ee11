#include "steiner/exact.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "steiner/mst.hpp"
#include "steiner/validate.hpp"
#include "steiner_reference.hpp"

namespace dsf {
namespace {

TEST(ExactSteinerTreeTest, TwoTerminalsIsShortestPath) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(15, 0.25, 1, 20, rng);
    const std::vector<NodeId> terms{0, 14};
    const auto d = Dijkstra(g, 0);
    EXPECT_EQ(ExactSteinerTreeWeight(g, terms), d.dist[14]) << seed;
  }
}

TEST(ExactSteinerTreeTest, SingleOrNoTerminalIsZero) {
  const Graph g = MakePath(4);
  EXPECT_EQ(ExactSteinerTreeWeight(g, std::vector<NodeId>{}), 0);
  EXPECT_EQ(ExactSteinerTreeWeight(g, std::vector<NodeId>{2}), 0);
}

TEST(ExactSteinerTreeTest, ClassicSteinerPointExample) {
  // Star where center 0 is a Steiner point: terminals 1,2,3 each at
  // distance 1 from the center, pairwise distance 2 direct.
  Graph g(4);
  g.AddEdge(0, 1, 1);
  g.AddEdge(0, 2, 1);
  g.AddEdge(0, 3, 1);
  g.AddEdge(1, 2, 2);
  g.AddEdge(2, 3, 2);
  g.Finalize();
  const std::vector<NodeId> terms{1, 2, 3};
  EXPECT_EQ(ExactSteinerTreeWeight(g, terms), 3);  // via the Steiner point
}

TEST(ExactSteinerTreeTest, AllNodesTerminalsEqualsMst) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(10, 0.4, 1, 30, rng);
    std::vector<NodeId> terms;
    for (NodeId v = 0; v < 10; ++v) terms.push_back(v);
    EXPECT_EQ(ExactSteinerTreeWeight(g, terms), MstWeight(g)) << seed;
  }
}

TEST(ExactSteinerTreeTest, DisconnectedTerminalsInfinite) {
  Graph g(4);
  g.AddEdge(0, 1, 1);
  g.AddEdge(2, 3, 1);
  g.Finalize();
  const std::vector<NodeId> terms{0, 3};
  EXPECT_GE(ExactSteinerTreeWeight(g, terms), kInfWeight);
}

TEST(ExactSteinerForestTest, SingleComponentMatchesTree) {
  SplitMix64 rng(1);
  const Graph g = MakeConnectedRandom(12, 0.3, 1, 15, rng);
  const IcInstance ic = MakeIcInstance(12, {{0, 1}, {5, 1}, {9, 1}});
  const std::vector<NodeId> terms{0, 5, 9};
  EXPECT_EQ(ExactSteinerForestWeight(g, ic), ExactSteinerTreeWeight(g, terms));
}

TEST(ExactSteinerForestTest, IndependentComponentsSum) {
  // Two far-apart components on a path: optimum = sum of the spans.
  const Graph g = MakePath(10);
  const IcInstance ic = MakeIcInstance(10, {{0, 1}, {2, 1}, {7, 2}, {9, 2}});
  EXPECT_EQ(ExactSteinerForestWeight(g, ic), 2 + 2);
}

TEST(ExactSteinerForestTest, SharingBeatsSeparation) {
  // Components 1 = {0, 3} and 2 = {1, 2} interleaved on a path: a single
  // shared segment 0..3 (weight 3) beats any disjoint pair of trees.
  const Graph g = MakePath(4);
  const IcInstance ic = MakeIcInstance(4, {{0, 1}, {3, 1}, {1, 2}, {2, 2}});
  EXPECT_EQ(ExactSteinerForestWeight(g, ic), 3);
}

TEST(ExactSteinerForestTest, EmptyInstanceZero) {
  const Graph g = MakePath(3);
  EXPECT_EQ(ExactSteinerForestWeight(g, MakeIcInstance(3, {})), 0);
}

TEST(ExactSteinerForestTest, SingletonComponentsDropped) {
  const Graph g = MakePath(6);
  const IcInstance ic = MakeIcInstance(6, {{0, 1}, {2, 1}, {5, 9}});
  EXPECT_EQ(ExactSteinerForestWeight(g, ic), 2);
}

TEST(ExactSteinerForestTest, PartitionChoiceMatters) {
  // Triangle of components where merging all three into one tree is optimal.
  // Star center 0 with three arms of weight 1; each arm tip is its own
  // component paired with a far twin reachable only through the center.
  Graph g(7);
  g.AddEdge(0, 1, 1);
  g.AddEdge(0, 2, 1);
  g.AddEdge(0, 3, 1);
  g.AddEdge(1, 4, 1);
  g.AddEdge(2, 5, 1);
  g.AddEdge(3, 6, 1);
  g.Finalize();
  const IcInstance ic = MakeIcInstance(7, {{4, 1}, {5, 1}, {6, 2}, {1, 2}});
  // Component 1 = {4,5}: needs 4-1-0-2-5 (w 4). Component 2 = {6,1}: needs
  // 6-3-0-1 (w 3). Sharing edges 1-0: total exact = 4 + 3 - 1 (edge 0-1
  // shared)... the exact solver must find weight 6.
  EXPECT_EQ(ExactSteinerForestWeight(g, ic), 6);
}

TEST(ExactSolutionTest, TreeEdgesRealizeTheOptimum) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    SplitMix64 rng(seed * 11 + 2);
    const Graph g = MakeConnectedRandom(14, 0.3, 1, 20, rng);
    const std::vector<NodeId> terms{0, 5, 9, 13};
    const ExactSolution sol = ExactSteinerTree(g, terms);
    ASSERT_LT(sol.weight, kInfWeight) << seed;
    EXPECT_EQ(g.WeightOf(sol.edges), sol.weight) << seed;
    EXPECT_TRUE(g.IsForest(sol.edges)) << seed;
    const IcInstance ic =
        MakeIcInstance(14, {{0, 1}, {5, 1}, {9, 1}, {13, 1}});
    EXPECT_TRUE(IsFeasible(g, ic, sol.edges)) << seed;
  }
}

TEST(ExactSolutionTest, ForestEdgesRealizeTheOptimum) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    SplitMix64 rng(seed * 7 + 1);
    const Graph g = MakeConnectedRandom(14, 0.3, 1, 16, rng);
    const IcInstance ic =
        MakeIcInstance(14, {{0, 1}, {13, 1}, {3, 2}, {10, 2}, {6, 3}, {8, 3}});
    const ExactSolution sol = ExactSteinerForest(g, ic);
    ASSERT_LT(sol.weight, kInfWeight) << seed;
    EXPECT_EQ(g.WeightOf(sol.edges), sol.weight) << seed;
    EXPECT_TRUE(g.IsForest(sol.edges)) << seed;
    EXPECT_TRUE(IsFeasible(g, ic, sol.edges)) << seed;
    EXPECT_TRUE(IsMinimalFeasible(g, ic, sol.edges)) << seed;
  }
}

TEST(ExactSolutionTest, ForestEdgesOnSharingInstance) {
  // The SharingBeatsSeparation path: the realizing edges are the shared
  // segment 0-1-2-3, one tree covering both components.
  const Graph g = MakePath(4);
  const IcInstance ic = MakeIcInstance(4, {{0, 1}, {3, 1}, {1, 2}, {2, 2}});
  const ExactSolution sol = ExactSteinerForest(g, ic);
  EXPECT_EQ(sol.weight, 3);
  EXPECT_EQ(sol.edges, (std::vector<EdgeId>{0, 1, 2}));
}

TEST(ExactSteinerForestTest, TooManyTerminalsFailsLoudly) {
  // 8 components x 2 terminals = 16 terminals: under the component cap but
  // over kExactForestMaxTerminals — must throw instead of grinding through
  // a 3^16-subset Dreyfus-Wagner on the full union.
  const Graph g = MakePath(16);
  std::vector<std::pair<NodeId, Label>> assign;
  for (int c = 0; c < 8; ++c) {
    assign.push_back({static_cast<NodeId>(2 * c), static_cast<Label>(c + 1)});
    assign.push_back(
        {static_cast<NodeId>(2 * c + 1), static_cast<Label>(c + 1)});
  }
  EXPECT_THROW(ExactSteinerForestWeight(g, MakeIcInstance(16, assign)),
               std::logic_error);
}

}  // namespace
}  // namespace dsf
