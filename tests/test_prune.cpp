#include "steiner/prune.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "graph/generators.hpp"
#include "graph/union_find.hpp"
#include "prune_reference.hpp"
#include "steiner/mst.hpp"
#include "steiner/validate.hpp"
#include "steiner_reference.hpp"
#include "workload/generators.hpp"

namespace dsf {
namespace {

TEST(PruneTest, DropsDanglingBranches) {
  const Graph g = MakePath(6);
  const IcInstance ic = MakeIcInstance(6, {{1, 1}, {3, 1}});
  const std::vector<EdgeId> forest{0, 1, 2, 3, 4};  // whole path
  const auto pruned = MinimalFeasibleSubforest(g, ic, forest);
  EXPECT_EQ(pruned, (std::vector<EdgeId>{1, 2}));  // only 1-2, 2-3
}

TEST(PruneTest, KeepsSharedTrunk) {
  // Star; two components both need the center.
  const Graph g = MakeStar(5);
  const IcInstance ic = MakeIcInstance(5, {{1, 1}, {2, 1}, {3, 2}, {4, 2}});
  const std::vector<EdgeId> all{0, 1, 2, 3};
  const auto pruned = MinimalFeasibleSubforest(g, ic, all);
  EXPECT_EQ(pruned.size(), 4u);
}

TEST(PruneTest, MultiTreeForest) {
  const Graph g = MakePath(7);
  const IcInstance ic = MakeIcInstance(7, {{0, 1}, {1, 1}, {5, 2}, {6, 2}});
  // Forest containing both spans plus slack in the middle, but NOT edge 2
  // (so the forest has two trees).
  const std::vector<EdgeId> forest{0, 1, 3, 4, 5};
  const auto pruned = MinimalFeasibleSubforest(g, ic, forest);
  EXPECT_EQ(pruned, (std::vector<EdgeId>{0, 5}));
}

TEST(PruneTest, PrunedOutputIsMinimalFeasible) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(20, 0.2, 1, 30, rng);
    const IcInstance ic =
        MakeIcInstance(20, {{0, 1}, {7, 1}, {11, 2}, {15, 2}, {19, 2}});
    // Start from a spanning tree (feasible, far from minimal).
    const auto mst = KruskalMst(g);
    const auto pruned = MinimalFeasibleSubforest(g, ic, mst);
    EXPECT_TRUE(IsMinimalFeasible(g, ic, pruned)) << seed;
  }
}

TEST(PruneTest, NoTerminalsPrunesEverything) {
  const Graph g = MakePath(4);
  const IcInstance ic = MakeIcInstance(4, {});
  const auto pruned =
      MinimalFeasibleSubforest(g, ic, std::vector<EdgeId>{0, 1, 2});
  EXPECT_TRUE(pruned.empty());
}

TEST(PruneTest, RejectsCyclicInput) {
  const Graph g = MakeCycle(4);
  const IcInstance ic = MakeIcInstance(4, {{0, 1}, {2, 1}});
  EXPECT_THROW(MinimalFeasibleSubforest(g, ic, std::vector<EdgeId>{0, 1, 2, 3}),
               std::logic_error);
}

TEST(PruneTest, RejectsInfeasibleInput) {
  const Graph g = MakePath(4);
  const IcInstance ic = MakeIcInstance(4, {{0, 1}, {3, 1}});
  EXPECT_THROW(MinimalFeasibleSubforest(g, ic, std::vector<EdgeId>{0}),
               std::logic_error);
}

TEST(PruneTest, IdempotentOnMinimalInput) {
  const Graph g = MakePath(5);
  const IcInstance ic = MakeIcInstance(5, {{0, 1}, {4, 1}});
  const std::vector<EdgeId> minimal{0, 1, 2, 3};
  EXPECT_EQ(MinimalFeasibleSubforest(g, ic, minimal), minimal);
}

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

// A spanning forest of g from a seeded edge shuffle. Each edge survives
// with probability `keep_percent`%, so below 100 the forest splits into
// several trees.
std::vector<EdgeId> RandomForest(const Graph& g, std::uint64_t seed,
                                 int keep_percent) {
  std::vector<EdgeId> order(static_cast<std::size_t>(g.NumEdges()));
  std::iota(order.begin(), order.end(), 0);
  SplitMix64 rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  UnionFind uf(g.NumNodes());
  std::vector<EdgeId> forest;
  for (const EdgeId e : order) {
    if (uf.Union(g.GetEdge(e).u, g.GetEdge(e).v) &&
        static_cast<int>(rng.NextBelow(100)) < keep_percent) {
      forest.push_back(e);
    }
  }
  return forest;  // shuffled order: the kernel must not assume sorted input
}

enum class LabelDraw { kDense, kSparse, kSingletons, kNone };

// Labels that `forest` satisfies: each label's terminals sit in one tree.
//   kDense       labels 0..k-1, 1 to 5 terminals each;
//   kSparse      labels INT32_MAX, INT32_MAX - 1, ..., 1 to 5 terminals each;
//   kSingletons  n / 3 labels of one terminal each;
//   kNone        no terminal.
IcInstance DrawLabels(const Graph& g, const std::vector<EdgeId>& forest,
                      LabelDraw draw, std::uint64_t seed) {
  const int n = g.NumNodes();
  std::vector<std::pair<NodeId, Label>> assign;
  if (draw == LabelDraw::kNone) return MakeIcInstance(n, assign);
  UnionFind uf(n);
  for (const EdgeId e : forest) uf.Union(g.GetEdge(e).u, g.GetEdge(e).v);
  SplitMix64 rng(seed);
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  const int k = draw == LabelDraw::kSingletons ? n / 3 : std::max(1, n / 6);
  for (int i = 0; i < k; ++i) {
    const Label label = draw == LabelDraw::kSparse
                            ? std::numeric_limits<Label>::max() - i
                            : static_cast<Label>(i);
    const int per = draw == LabelDraw::kSingletons
                        ? 1
                        : 1 + static_cast<int>(rng.NextBelow(5));
    const auto anchor = static_cast<NodeId>(rng.NextBelow(n));
    for (int tries = 0, placed = 0; tries < 8 * n && placed < per; ++tries) {
      const auto v = static_cast<NodeId>(rng.NextBelow(n));
      if (used[static_cast<std::size_t>(v)] || !uf.Connected(v, anchor)) {
        continue;
      }
      used[static_cast<std::size_t>(v)] = 1;
      assign.push_back({v, label});
      ++placed;
    }
  }
  return MakeIcInstance(n, assign);
}

TEST(PruneExactnessTest, FamilyTableCoversEveryGenerator) {
  std::vector<std::string_view> names;
  for (const auto& [family, params] : Families()) names.push_back(family);
  std::vector<std::string_view> registered = GeneratorRegistry::Names();
  std::sort(names.begin(), names.end());
  std::sort(registered.begin(), registered.end());
  EXPECT_EQ(names, registered);
}

// The preorder-interval kernel keeps exactly the label-count reference's
// edges over every family × forest shape × label draw.
TEST(PruneExactnessTest, MatchesLabelCountReferenceEverywhere) {
  int cases = 0;
  long kept = 0;
  std::uint64_t seed = 0;
  for (const auto& [family, params] : Families()) {
    for (int draw_seed = 0; draw_seed < 3; ++draw_seed) {
      ++seed;
      const Graph g = BuildGenerator(family, params, seed);
      const std::vector<std::vector<EdgeId>> forests = {
          KruskalMst(g),
          RandomForest(g, seed, 100),
          RandomForest(g, seed + 1000, 70),
          {},
      };
      for (const std::vector<EdgeId>& forest : forests) {
        for (const LabelDraw draw :
             {LabelDraw::kDense, LabelDraw::kSparse, LabelDraw::kSingletons,
              LabelDraw::kNone}) {
          const IcInstance ic = DrawLabels(g, forest, draw, seed);
          const std::vector<EdgeId> want =
              reference::ReferenceMinimalFeasibleSubforest(g, ic, forest);
          ASSERT_EQ(MinimalFeasibleSubforest(g, ic, forest), want)
              << family << " seed " << seed << " forest of "
              << forest.size() << " draw " << static_cast<int>(draw);
          ++cases;
          kept += static_cast<long>(want.size());
        }
      }
    }
  }
  EXPECT_EQ(cases, 12 * 3 * 4 * 4);
  EXPECT_GT(kept, 1000);  // the draws keep real trees, not just empty sets
}

}  // namespace
}  // namespace dsf
