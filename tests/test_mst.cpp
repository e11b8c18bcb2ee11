#include "steiner/mst.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/random.hpp"
#include "graph/generators.hpp"
#include "graph/union_find.hpp"
#include "shortest_path_reference.hpp"

namespace dsf {
namespace {

// Every edge id in (w, id) order by comparison sort.
std::vector<EdgeId> SortedByWeight(const Graph& g) {
  std::vector<EdgeId> ids(static_cast<std::size_t>(g.NumEdges()));
  std::iota(ids.begin(), ids.end(), 0);
  std::sort(ids.begin(), ids.end(), [&](EdgeId a, EdgeId b) {
    const Weight wa = g.GetEdge(a).w;
    const Weight wb = g.GetEdge(b).w;
    return wa != wb ? wa < wb : a < b;
  });
  return ids;
}

// Oracle: the heap-based Kruskal that KruskalMst replaced. make_heap over
// all ids, then pops in (w, id) order with the same early exit and the same
// cancellation checkpoint every 4096 pops.
std::vector<EdgeId> HeapKruskalMst(const Graph& g,
                                   const CancelToken* cancel = nullptr) {
  std::vector<EdgeId> ids(static_cast<std::size_t>(g.NumEdges()));
  std::iota(ids.begin(), ids.end(), 0);
  const auto cmp = [&](EdgeId a, EdgeId b) {
    const Weight wa = g.GetEdge(a).w;
    const Weight wb = g.GetEdge(b).w;
    return wa != wb ? wa > wb : a > b;
  };
  std::make_heap(ids.begin(), ids.end(), cmp);
  UnionFind uf(g.NumNodes());
  std::vector<EdgeId> mst;
  const int full = g.NumNodes() - 1;
  auto end = ids.end();
  std::size_t pops = 0;
  while (end != ids.begin()) {
    if (cancel != nullptr && (++pops & 0xFFFu) == 0 && cancel->Expired()) {
      break;
    }
    std::pop_heap(ids.begin(), end, cmp);
    --end;
    const auto& e = g.GetEdge(*end);
    if (uf.Union(e.u, e.v)) {
      mst.push_back(*end);
      if (static_cast<int>(mst.size()) == full) break;
    }
  }
  return mst;
}

// `g`'s topology with weights drawn from a pool of 12 values in [1, top]
// that includes top itself, so weights tie and reach top's highest byte.
Graph WithPooledWeights(const Graph& g, std::uint64_t top,
                        std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::array<Weight, 12> pool{};
  pool[0] = static_cast<Weight>(top);
  for (std::size_t i = 1; i < pool.size(); ++i) {
    pool[i] = static_cast<Weight>(1 + rng.NextBelow(top));
  }
  Graph out(g.NumNodes());
  for (const Edge& e : g.Edges()) {
    out.AddEdge(e.u, e.v, pool[rng.NextBelow(pool.size())]);
  }
  out.Finalize();
  return out;
}

// Largest weight that needs `passes` radix passes: 2^(8·passes) - 1, and
// 2^62 for 8 passes (AddEdge only requires w >= 1).
std::uint64_t TopForPasses(int passes) {
  return passes == 8 ? std::uint64_t{1} << 62
                     : (std::uint64_t{1} << (8 * passes)) - 1;
}

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

TEST(EdgeOrderTest, EqualsComparisonSortOnTies) {
  SplitMix64 rng(3);
  for (const Weight max_w : {1, 2, 3}) {
    const Graph g = MakeConnectedRandom(40, 0.3, 1, max_w, rng);
    EXPECT_EQ(EdgesByWeight(g), SortedByWeight(g)) << max_w;
  }
  EXPECT_TRUE(EdgesByWeight(Graph(0)).empty());
}

TEST(EdgeOrderTest, EqualsComparisonSortAtEveryPassCount) {
  SplitMix64 rng(5);
  const Graph base = MakeConnectedRandom(60, 0.2, 1, 1, rng);
  for (int passes = 1; passes <= 8; ++passes) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const Graph g = WithPooledWeights(base, TopForPasses(passes), seed);
      EXPECT_EQ(EdgesByWeight(g), SortedByWeight(g))
          << passes << " passes, seed " << seed;
    }
  }
}

TEST(EdgeOrderTest, KruskalMatchesHeapOracle) {
  SplitMix64 rng(11);
  for (int passes = 1; passes <= 8; ++passes) {
    const Graph connected = WithPooledWeights(
        MakeConnectedRandom(50, 0.15, 1, 1, rng), TopForPasses(passes), 1);
    EXPECT_EQ(KruskalMst(connected), HeapKruskalMst(connected)) << passes;
  }
  // Disconnected: two random blocks, a path and isolated nodes, with ties.
  Graph g(70);
  for (int block = 0; block < 2; ++block) {
    for (NodeId u = 0; u < 25; ++u) {
      for (NodeId v = u + 1; v < 25; ++v) {
        if (rng.NextBelow(4) == 0) {
          g.AddEdge(25 * block + u, 25 * block + v, rng.NextInt(1, 4));
        }
      }
    }
  }
  for (NodeId u = 50; u < 60; ++u) g.AddEdge(u, u + 1, 2);
  g.Finalize();
  const std::vector<EdgeId> mst = KruskalMst(g);
  EXPECT_EQ(mst, HeapKruskalMst(g));
  EXPECT_TRUE(g.IsForest(mst));
  EXPECT_EQ(SubgraphComponents(g, mst).count,
            SubgraphComponents(g, SortedByWeight(g)).count);
}

TEST(EdgeOrderTest, ExpiredCancelReturnsThePartialForest) {
  // A light complete block on 100 nodes (4950 edges) and a heavy path on
  // 50 more: the path's edges come after the 4096th edge in (w, id) order.
  SplitMix64 rng(13);
  Graph g(150);
  for (NodeId u = 0; u < 100; ++u) {
    for (NodeId v = u + 1; v < 100; ++v) g.AddEdge(u, v, rng.NextInt(1, 10));
  }
  for (NodeId u = 99; u < 149; ++u) g.AddEdge(u, u + 1, 1000);
  g.Finalize();
  CancelToken cancel;
  cancel.Cancel();
  const std::vector<EdgeId> partial = KruskalMst(g, &cancel);
  EXPECT_EQ(partial, HeapKruskalMst(g, &cancel));
  EXPECT_EQ(partial.size(), 99u);  // the block's tree, none of the path
  const std::vector<EdgeId> full = KruskalMst(g);
  ASSERT_EQ(full.size(), 149u);
  EXPECT_TRUE(std::equal(partial.begin(), partial.end(), full.begin()));
}

}  // namespace
}  // namespace dsf
