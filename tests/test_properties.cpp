#include "graph/properties.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "shortest_path_reference.hpp"

namespace dsf {
namespace {

// The definition, pair by pair: a BFS and a reference Dijkstra per source.
GraphParameters BruteForceParameters(const Graph& g) {
  GraphParameters p;
  p.connected = IsConnected(g);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const auto bfs = Bfs(g, v);
    const auto sp = ReferenceDijkstra(g, v);
    for (std::size_t u = 0; u < bfs.depth.size(); ++u) {
      p.unweighted_diameter = std::max(p.unweighted_diameter, bfs.depth[u]);
      if (sp.Reachable(static_cast<NodeId>(u))) {
        p.weighted_diameter = std::max(p.weighted_diameter, sp.dist[u]);
        p.shortest_path_diameter =
            std::max(p.shortest_path_diameter, sp.hops[u]);
      }
    }
  }
  return p;
}

bool SameLabels(const ShortestPathTree& a, const ShortestPathTree& b) {
  return a.source == b.source && a.dist == b.dist && a.hops == b.hops &&
         a.parent == b.parent && a.parent_edge == b.parent_edge;
}

void ExpectSameParameters(const GraphParameters& got,
                          const GraphParameters& want,
                          const std::string& label) {
  EXPECT_EQ(got.unweighted_diameter, want.unweighted_diameter) << label;
  EXPECT_EQ(got.weighted_diameter, want.weighted_diameter) << label;
  EXPECT_EQ(got.shortest_path_diameter, want.shortest_path_diameter) << label;
  EXPECT_EQ(got.connected, want.connected) << label;
}

// Both tiers of `g` against the brute-force definition.
void ExpectMatchesBruteForce(const Graph& g, const std::string& label) {
  const GraphParameters want = BruteForceParameters(g);
  ExpectSameParameters(ComputeParameters(g), want, label);
  const HopParameters hop = ComputeHopParameters(g);
  EXPECT_EQ(hop.unweighted_diameter, want.unweighted_diameter) << label;
  EXPECT_EQ(hop.connected, want.connected) << label;
}

TEST(PropertiesTest, PathParameters) {
  const Graph g = MakePath(6, 2);
  const auto p = ComputeParameters(g);
  EXPECT_TRUE(p.connected);
  EXPECT_EQ(p.unweighted_diameter, 5);
  EXPECT_EQ(p.shortest_path_diameter, 5);
  EXPECT_EQ(p.weighted_diameter, 10);
}

TEST(PropertiesTest, StarParameters) {
  const Graph g = MakeStar(9, 7);
  const auto p = ComputeParameters(g);
  EXPECT_EQ(p.unweighted_diameter, 2);
  EXPECT_EQ(p.shortest_path_diameter, 2);
  EXPECT_EQ(p.weighted_diameter, 14);
}

TEST(PropertiesTest, ShortestPathDiameterExceedsHopDiameter) {
  // Cycle with one heavy chord-avoiding structure: a 6-cycle where one edge is
  // heavy forces weighted shortest paths the long way around.
  Graph g(6);
  g.AddEdge(0, 1, 1);
  g.AddEdge(1, 2, 1);
  g.AddEdge(2, 3, 1);
  g.AddEdge(3, 4, 1);
  g.AddEdge(4, 5, 1);
  g.AddEdge(5, 0, 100);
  g.Finalize();
  const auto p = ComputeParameters(g);
  EXPECT_EQ(p.unweighted_diameter, 3);
  EXPECT_EQ(p.shortest_path_diameter, 5);  // 0..5 along the light path
}

TEST(PropertiesTest, SAlwaysAtLeastD) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(30, 0.1, 1, 40, rng);
    const auto p = ComputeParameters(g);
    EXPECT_GE(p.shortest_path_diameter, p.unweighted_diameter) << seed;
  }
}

TEST(PropertiesTest, UnitWeightsMakeSEqualD) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(25, 0.15, 1, 1, rng);
    const auto p = ComputeParameters(g);
    EXPECT_EQ(p.shortest_path_diameter, p.unweighted_diameter) << seed;
  }
}

TEST(PropertiesTest, DisconnectedDetected) {
  Graph g(4);
  g.AddEdge(0, 1, 1);
  g.Finalize();
  EXPECT_FALSE(IsConnected(g));
  EXPECT_FALSE(ComputeParameters(g).connected);
}

TEST(PropertiesTest, CompleteGraphDiameterOne) {
  SplitMix64 rng(5);
  const Graph g = MakeComplete(8, 1, 1, rng);
  const auto p = ComputeParameters(g);
  EXPECT_EQ(p.unweighted_diameter, 1);
  EXPECT_EQ(p.weighted_diameter, 1);
}

TEST(PropertiesTest, SingleNode) {
  Graph g(1);
  g.Finalize();
  const auto p = ComputeParameters(g);
  EXPECT_TRUE(p.connected);
  EXPECT_EQ(p.unweighted_diameter, 0);
  EXPECT_EQ(p.shortest_path_diameter, 0);
}

TEST(PropertiesTest, MatchesBruteForceOnEveryGeneratorFamily) {
  for (const auto& [label, g] : RegistryGraphs()) {
    ExpectMatchesBruteForce(g, label);
  }
}

TEST(PropertiesTest, MatchesBruteForceAtBatchEdges) {
  // The hop-diameter BFS carries 64 sources per pass: sizes just below, at
  // and past one and two batches, on a path (D = n - 1 spans batches) and
  // on a random graph.
  for (const int n : {0, 1, 63, 64, 65, 129}) {
    std::vector<Graph> graphs;
    if (n < 2) {
      graphs.push_back(MakeGraph(n, {}));
    } else {
      SplitMix64 rng(static_cast<std::uint64_t>(n));
      graphs.push_back(MakePath(n, 3));
      graphs.push_back(MakeConnectedRandom(n, 0.04, 1, 9, rng));
    }
    for (const Graph& g : graphs) {
      ExpectMatchesBruteForce(g, "n=" + std::to_string(n));
    }
  }
}

TEST(PropertiesTest, MatchesBruteForceOnDisconnectedGraph) {
  // A 70-node path (across the first batch edge), a random component and
  // an isolated node: every field is a max over reachable pairs only.
  SplitMix64 rng(21);
  const Graph random = MakeConnectedRandom(30, 0.1, 1, 50, rng);
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < 70; ++v) edges.push_back({v, v + 1, 1});
  for (const Edge& e : random.Edges()) {
    edges.push_back({e.u + 70, e.v + 70, e.w});
  }
  const Graph g = MakeGraph(101, edges);
  const auto p = ComputeParameters(g);
  EXPECT_FALSE(p.connected);
  EXPECT_EQ(p.unweighted_diameter, 69);
  ExpectMatchesBruteForce(g, "disconnected");
}

TEST(PropertiesTest, ConcurrentColdCallsShareOneExactMemo) {
  // Four threads race the first lookups of both memo tiers on one cold
  // graph, even threads hop tier first and odd threads full tier first (so
  // the full tier's install may race the hop tier's), then run Dijkstra on
  // graphs of their own, each through its thread's own queue storage.
  constexpr int kThreads = 4;
  SplitMix64 rng(31);
  const Graph shared = MakeConnectedRandom(150, 0.04, 1, 20, rng);
  const GraphParameters want = BruteForceParameters(shared);
  std::vector<Graph> own;
  std::vector<std::vector<ShortestPathTree>> reference(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    own.push_back(MakeConnectedRandom(60, 0.08, 1, 1000 * (t + 1), rng));
    for (NodeId s = 0; s < own.back().NumNodes(); ++s) {
      reference[static_cast<std::size_t>(t)].push_back(
          ReferenceDijkstra(own.back(), s));
    }
  }

  std::vector<const HopParameters*> hop(kThreads, nullptr);
  std::vector<const GraphParameters*> memo(kThreads, nullptr);
  std::vector<int> mismatches(kThreads, 0);
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto ti = static_cast<std::size_t>(t);
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) {
      }
      if (t % 2 == 0) {
        hop[ti] = &CachedHopParameters(shared);
        memo[ti] = &CachedParameters(shared);
      } else {
        memo[ti] = &CachedParameters(shared);
        hop[ti] = &CachedHopParameters(shared);
      }
      for (int rep = 0; rep < 3; ++rep) {
        for (NodeId s = 0; s < own[ti].NumNodes(); ++s) {
          if (!SameLabels(Dijkstra(own[ti], s),
                          reference[ti][static_cast<std::size_t>(s)])) {
            ++mismatches[ti];
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    EXPECT_EQ(hop[ti], hop[0]) << "thread " << t;
    EXPECT_EQ(memo[ti], memo[0]) << "thread " << t;
    EXPECT_EQ(mismatches[ti], 0) << "thread " << t;
  }
  // One D and one connectivity bit, whichever tier a caller asked first.
  EXPECT_EQ(memo[0]->unweighted_diameter, hop[0]->unweighted_diameter);
  EXPECT_EQ(memo[0]->connected, hop[0]->connected);
  ExpectSameParameters(*memo[0], want, "memo");
}

}  // namespace
}  // namespace dsf
