#include "steiner/mst.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "shortest_path_reference.hpp"

namespace dsf {
namespace {

TEST(MstTest, PathMstIsAllEdges) {
  const Graph g = MakePath(5, 2);
  const auto mst = KruskalMst(g);
  EXPECT_EQ(mst.size(), 4u);
  EXPECT_EQ(MstWeight(g), 8);
}

TEST(MstTest, CycleDropsHeaviestEdge) {
  Graph g(4);
  g.AddEdge(0, 1, 1);
  g.AddEdge(1, 2, 2);
  g.AddEdge(2, 3, 3);
  g.AddEdge(3, 0, 10);
  g.Finalize();
  const auto mst = KruskalMst(g);
  EXPECT_EQ(mst.size(), 3u);
  EXPECT_EQ(MstWeight(g), 6);
}

TEST(MstTest, SpansEveryComponent) {
  Graph g(5);
  g.AddEdge(0, 1, 4);
  g.AddEdge(1, 2, 4);
  g.AddEdge(3, 4, 4);
  g.Finalize();
  const auto mst = KruskalMst(g);
  EXPECT_EQ(mst.size(), 3u);  // spanning forest
}

TEST(MstTest, MatchesPrimStyleBruteForceOnRandom) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(20, 0.3, 1, 100, rng);
    // Brute-force Prim.
    std::vector<char> in_tree(20, 0);
    in_tree[0] = 1;
    Weight prim_total = 0;
    for (int step = 0; step < 19; ++step) {
      Weight best = kInfWeight;
      NodeId best_v = kNoNode;
      for (NodeId u = 0; u < 20; ++u) {
        if (!in_tree[static_cast<std::size_t>(u)]) continue;
        for (const auto& inc : g.Neighbors(u)) {
          if (in_tree[static_cast<std::size_t>(inc.neighbor)]) continue;
          const Weight w = g.GetEdge(inc.edge).w;
          if (w < best) {
            best = w;
            best_v = inc.neighbor;
          }
        }
      }
      ASSERT_NE(best_v, kNoNode);
      in_tree[static_cast<std::size_t>(best_v)] = 1;
      prim_total += best;
    }
    EXPECT_EQ(MstWeight(g), prim_total) << seed;
  }
}

TEST(MstTest, OutputIsSpanningForest) {
  SplitMix64 rng(9);
  const Graph g = MakeConnectedRandom(25, 0.2, 1, 9, rng);
  const auto mst = KruskalMst(g);
  EXPECT_TRUE(g.IsForest(mst));
  EXPECT_EQ(SubgraphComponents(g, mst).count, 1);
}

}  // namespace
}  // namespace dsf
