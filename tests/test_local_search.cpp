#include "steiner/local_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "graph/generators.hpp"
#include "graph/union_find.hpp"
#include "local_search_reference.hpp"
#include "steiner/mst.hpp"
#include "steiner/prune.hpp"
#include "steiner/validate.hpp"
#include "workload/generators.hpp"

namespace dsf {
namespace {

using Params = std::vector<std::pair<std::string, std::string>>;

// One small instance of every registered generator family.
const std::vector<std::pair<std::string, Params>>& Families() {
  static const std::vector<std::pair<std::string, Params>> kFamilies = {
      {"path", {{"n", "20"}}},
      {"cycle", {{"n", "20"}}},
      {"star", {{"n", "14"}}},
      {"grid", {{"rows", "5"}, {"cols", "6"}}},
      {"complete", {{"n", "9"}}},
      {"er", {{"n", "24"}, {"p", "0.15"}}},
      {"geometric", {{"n", "24"}, {"radius", "0.45"}}},
      {"tree-chords", {{"n", "31"}, {"chords", "10"}}},
      {"caterpillar", {{"spine", "7"}, {"legs", "2"}}},
      {"subdivided-er", {{"n", "8"}, {"p", "0.35"}, {"pieces", "3"}}},
      {"expander-far-pairs",
       {{"pairs", "3"}, {"tail", "2"}, {"core", "12"}, {"chords", "10"}}},
      {"power-law", {{"n", "28"}, {"m", "2"}}},
  };
  return kFamilies;
}

// The family's topology with fresh weights: all 1, 1..9, or 1..10^8.
Graph Reweighted(const Graph& g, Weight max_w, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Graph out(g.NumNodes());
  for (const Edge& e : g.Edges()) {
    out.AddEdge(e.u, e.v, rng.NextInt(1, max_w));
  }
  out.Finalize();
  return out;
}

// `k` labels of up to `per` terminals, each label inside one component of g.
IcInstance Demands(const Graph& g, int k, int per, std::uint64_t seed) {
  const int n = g.NumNodes();
  UnionFind uf(n);
  for (const Edge& e : g.Edges()) uf.Union(e.u, e.v);
  SplitMix64 rng(seed);
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  std::vector<std::pair<NodeId, Label>> assign;
  for (Label l = 1; l <= k; ++l) {
    const auto anchor = static_cast<NodeId>(rng.NextBelow(n));
    for (int tries = 0, placed = 0; tries < 8 * n && placed < per; ++tries) {
      const auto v = static_cast<NodeId>(rng.NextBelow(n));
      if (used[static_cast<std::size_t>(v)] || !uf.Connected(v, anchor)) {
        continue;
      }
      used[static_cast<std::size_t>(v)] = 1;
      assign.push_back({v, l});
      ++placed;
    }
  }
  return MakeIcInstance(n, assign);
}

// A spanning forest from a seeded edge shuffle: feasible for any instance
// whose labels each sit in one component, and far from a local optimum.
std::vector<EdgeId> RandomSpanningForest(const Graph& g, std::uint64_t seed) {
  std::vector<EdgeId> order(static_cast<std::size_t>(g.NumEdges()));
  std::iota(order.begin(), order.end(), 0);
  SplitMix64 rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  UnionFind uf(g.NumNodes());
  std::vector<EdgeId> forest;
  for (const EdgeId e : order) {
    if (uf.Union(g.GetEdge(e).u, g.GetEdge(e).v)) forest.push_back(e);
  }
  std::sort(forest.begin(), forest.end());
  return forest;
}

// The per-pass facts may only skip searches that cannot accept: over every
// family × weight range × start × pass budget, the library must take the
// reference's moves exactly, and never search more.
TEST(LocalSearchExactnessTest, MatchesPerEdgeSearchEverywhere) {
  int runs = 0;
  long moves = 0, searches = 0, reference_searches = 0;
  std::uint64_t seed = 0;
  for (const auto& [family, params] : Families()) {
    const Graph base = BuildGenerator(family, params, 7);
    // Two weight draws and demand sets per weight range.
    for (int draw = 0; draw < 6; ++draw) {
      const Weight max_w = std::array<Weight, 3>{1, 9, 100'000'000}[draw % 3];
      ++seed;
      const Graph g = Reweighted(base, max_w, seed);
      const IcInstance ic = Demands(g, 4, 3, seed);
      const std::vector<EdgeId> spanning = RandomSpanningForest(g, seed);
      const std::vector<EdgeId> pruned =
          MinimalFeasibleSubforest(g, ic, spanning);
      std::vector<NodeId> focus = ic.Terminals();
      focus.resize(std::min<std::size_t>(focus.size(), 2));
      focus.push_back(static_cast<NodeId>(seed % g.NumNodes()));

      // cold, spanning, pruned, then spanning focused at radius 1..4.
      for (int start = 0; start < 7; ++start) {
        for (int max_passes = 1; max_passes <= 6; ++max_passes) {
          LocalSearchOptions opt;
          opt.max_passes = max_passes;
          if (start >= 1) opt.warm_start = start == 2 ? &pruned : &spanning;
          if (start >= 3) {
            opt.focus = &focus;
            opt.focus_radius = start - 2;
          }
          const LocalSearchResult got = LocalSearchSteinerForest(g, ic, opt);
          const LocalSearchResult want =
              reference::ReferenceLocalSearch(g, ic, opt);
          ++runs;
          moves += got.moves;
          searches += got.searches;
          reference_searches += want.searches;
          const bool same = got.forest == want.forest &&
                            got.moves == want.moves &&
                            got.passes == want.passes;
          EXPECT_TRUE(same) << family << " max_w=" << max_w
                            << " start=" << start
                            << " max_passes=" << max_passes << ": moves "
                            << got.moves << " vs " << want.moves
                            << ", passes " << got.passes << " vs "
                            << want.passes;
          EXPECT_LE(got.searches, want.searches);
          ASSERT_TRUE(IsFeasible(g, ic, got.forest));
        }
      }
    }
  }
  EXPECT_EQ(runs, 12 * 6 * 7 * 6);
  // The sweep must exercise both move paths, not just fixed points
  // (20501 moves, and 18460 of the reference's 47912 searches, when written).
  EXPECT_GT(moves, 15000);
  EXPECT_GT(searches, 0);
  EXPECT_LT(searches, reference_searches);
}

// A cold run seeds from Kruskal: its forest lies inside the MST, where every
// edge is the lightest across its cut, so the bound rules out every
// reconnection search and the result is mst-prune's forest.
TEST(LocalSearchExactnessTest, ColdKruskalSeededGridRunsNoSearches) {
  SplitMix64 rng(3);
  const Graph g = MakeGrid(12, 12, 1, 9, rng);
  const IcInstance ic = Demands(g, 4, 3, 11);
  const LocalSearchResult res = LocalSearchSteinerForest(g, ic);
  EXPECT_EQ(res.searches, 0);
  EXPECT_EQ(res.moves, 0);
  EXPECT_EQ(res.passes, 1);
  EXPECT_EQ(res.forest, MinimalFeasibleSubforest(g, ic, KruskalMst(g)));
}

// The facts cost O(n + m) per pass, so a pass that splits few tree nodes
// skips them and runs the per-edge search alone, searching exactly what
// the reference searches; the same instance unfocused uses the facts.
TEST(LocalSearchExactnessTest, SmallFocusSkipsTheFacts) {
  SplitMix64 rng(5);
  const Graph g = MakeGrid(30, 30, 1, 9, rng);
  const IcInstance ic = Demands(g, 4, 3, 21);
  const std::vector<EdgeId> warm =
      MinimalFeasibleSubforest(g, ic, RandomSpanningForest(g, 21));
  const std::vector<NodeId> focus = {ic.Terminals().front()};
  LocalSearchOptions opt;
  opt.warm_start = &warm;
  opt.focus_radius = 1;
  for (const bool focused : {true, false}) {
    SCOPED_TRACE(focused);
    opt.focus = focused ? &focus : nullptr;
    const LocalSearchResult got = LocalSearchSteinerForest(g, ic, opt);
    const LocalSearchResult want = reference::ReferenceLocalSearch(g, ic, opt);
    EXPECT_EQ(got.forest, want.forest);
    EXPECT_EQ(got.moves, want.moves);
    EXPECT_EQ(got.passes, want.passes);
    EXPECT_GT(want.searches, 0);
    if (focused) {
      EXPECT_EQ(got.searches, want.searches);
    } else {
      EXPECT_LT(got.searches, want.searches);
    }
  }
}

// The bound must not hide a real improvement: a demand joined by a heavy
// edge with a lighter detour around the cycle still swaps.
TEST(LocalSearchExactnessTest, CycleWithCheaperDetourStillSwaps) {
  // 0 -10- 1 -1- 2 -1- 3 -1- 0; terminals 0 and 1 share a label. The warm
  // start is the spanning path 0-1-2-3, big enough for the pass to compute
  // the facts: edge 3-0 bounds every path edge by 1, below edge 0-1's 10.
  const Graph g = MakeGraph(4, {{0, 1, 10}, {1, 2, 1}, {2, 3, 1}, {3, 0, 1}});
  const IcInstance ic = MakeIcInstance(4, {{0, 1}, {1, 1}});
  const std::vector<EdgeId> warm = {0, 1, 2};
  LocalSearchOptions opt;
  opt.warm_start = &warm;
  const LocalSearchResult res = LocalSearchSteinerForest(g, ic, opt);
  EXPECT_EQ(res.forest, (std::vector<EdgeId>{1, 2, 3}));
  EXPECT_EQ(res.moves, 1);
  EXPECT_EQ(res.searches, 1);
  EXPECT_EQ(res.passes, 2);
}

}  // namespace
}  // namespace dsf
