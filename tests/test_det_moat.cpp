// Tests for the distributed deterministic moat-growing protocol (Section 4.1
// / E.1, Theorem 4.17). The key assertion: the distributed emulation replays
// exactly the centralized Algorithm 1/2 merge sequence and produces an
// equivalent (weight-identical) minimal feasible forest.
#include "dist/det_moat.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "steiner/exact.hpp"
#include "steiner/mst.hpp"
#include "steiner/validate.hpp"
#include "steiner_reference.hpp"

namespace dsf {
namespace {

void ExpectMatchesCentralized(const Graph& g, const IcInstance& ic,
                              Real epsilon = 0.0L,
                              const std::string& context = "") {
  DetMoatOptions opt;
  opt.epsilon = epsilon;
  const auto dist = RunDistributedMoat(g, ic, opt);
  MoatOptions copt;
  copt.epsilon = epsilon;
  const auto cent = CentralizedMoatGrowing(g, ic, copt);

  EXPECT_TRUE(IsFeasible(g, MakeMinimal(ic), dist.forest))
      << context << ": " << FeasibilityDiagnostic(g, MakeMinimal(ic), dist.forest);
  EXPECT_TRUE(g.IsForest(dist.forest)) << context;

  // Merge sequences must agree step by step.
  ASSERT_EQ(dist.merges.size(), cent.merges.size()) << context;
  for (std::size_t i = 0; i < dist.merges.size(); ++i) {
    EXPECT_EQ(dist.merges[i].v, cent.merges[i].v) << context << " merge " << i;
    EXPECT_EQ(dist.merges[i].w, cent.merges[i].w) << context << " merge " << i;
    EXPECT_EQ(dist.merges[i].mu, cent.merges[i].mu) << context << " merge " << i;
    EXPECT_EQ(dist.merges[i].both_active, cent.merges[i].both_active)
        << context << " merge " << i;
  }
  EXPECT_EQ(dist.dual_sum, cent.dual_sum) << context;
  // Both outputs are minimal feasible subforests of weight-equal raw forests.
  EXPECT_EQ(g.WeightOf(dist.forest), g.WeightOf(cent.forest)) << context;
}

TEST(DetMoatTest, TwoTerminalPath) {
  const Graph g = MakePath(5, 2);
  const IcInstance ic = MakeIcInstance(5, {{0, 1}, {4, 1}});
  const auto res = RunDistributedMoat(g, ic);
  EXPECT_EQ(res.forest.size(), 4u);
  EXPECT_EQ(res.merges.size(), 1u);
}

TEST(DetMoatTest, DiamondPicksCheapSide) {
  const Graph g = MakeGraph(4, {{0, 1, 1}, {1, 3, 1}, {0, 2, 3}, {2, 3, 1}});
  const IcInstance ic = MakeIcInstance(4, {{0, 9}, {3, 9}});
  const auto res = RunDistributedMoat(g, ic);
  EXPECT_EQ(g.WeightOf(res.forest), 2);
}

TEST(DetMoatTest, MatchesCentralizedOnSmallFixtures) {
  {
    const Graph g = MakeStar(6, 2);
    const IcInstance ic = MakeIcInstance(6, {{1, 1}, {2, 1}, {3, 2}, {4, 2}});
    ExpectMatchesCentralized(g, ic, 0.0L, "star");
  }
  {
    const Graph g = MakeCycle(8, 3);
    const IcInstance ic = MakeIcInstance(8, {{0, 1}, {3, 1}, {5, 2}, {6, 2}});
    ExpectMatchesCentralized(g, ic, 0.0L, "cycle");
  }
  {
    SplitMix64 rng(5);
    const Graph g = MakeGrid(3, 3, 1, 4, rng);
    const IcInstance ic = MakeIcInstance(9, {{0, 1}, {8, 1}, {2, 2}, {6, 2}});
    ExpectMatchesCentralized(g, ic, 0.0L, "grid");
  }
}

TEST(DetMoatTest, MatchesCentralizedOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(16, 0.2, 1, 24, rng);
    const IcInstance ic =
        MakeIcInstance(16, {{0, 1}, {5, 1}, {9, 2}, {13, 2}, {3, 3}, {11, 3}});
    ExpectMatchesCentralized(g, ic, 0.0L, "seed " + std::to_string(seed));
  }
}

TEST(DetMoatTest, MatchesCentralizedRoundedMode) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    SplitMix64 rng(seed ^ 0x77);
    const Graph g = MakeConnectedRandom(14, 0.25, 1, 16, rng);
    const IcInstance ic = MakeIcInstance(14, {{0, 1}, {6, 1}, {3, 2}, {11, 2}});
    ExpectMatchesCentralized(g, ic, 0.5L, "rounded seed " + std::to_string(seed));
  }
}

TEST(DetMoatTest, TwoApproxAgainstExact) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SplitMix64 rng(seed ^ 0x1234);
    const Graph g = MakeConnectedRandom(12, 0.3, 1, 12, rng);
    const IcInstance ic = MakeIcInstance(12, {{0, 1}, {5, 1}, {8, 2}, {11, 2}});
    const auto res = RunDistributedMoat(g, ic);
    const Weight opt = ExactSteinerForestWeight(g, ic);
    EXPECT_LE(g.WeightOf(res.forest), 2 * opt) << seed;
  }
}

TEST(DetMoatTest, MstSpecialCase) {
  // t = n, k = 1: exact MST (paper, Main Techniques).
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(12, 0.3, 1, 40, rng);
    std::vector<std::pair<NodeId, Label>> assign;
    for (NodeId v = 0; v < 12; ++v) assign.push_back({v, 1});
    const auto res = RunDistributedMoat(g, MakeIcInstance(12, assign));
    EXPECT_EQ(g.WeightOf(res.forest), MstWeight(g)) << seed;
  }
}

TEST(DetMoatTest, EmptyInstanceTerminatesWithNoEdges) {
  const Graph g = MakePath(6);
  const auto res = RunDistributedMoat(g, MakeIcInstance(6, {}));
  EXPECT_TRUE(res.forest.empty());
  EXPECT_EQ(res.phases, 0);
}

TEST(DetMoatTest, SingletonLabelsIgnored) {
  const Graph g = MakePath(6);
  const IcInstance ic = MakeIcInstance(6, {{0, 1}, {2, 1}, {5, 7}});
  const auto res = RunDistributedMoat(g, ic);
  EXPECT_EQ(g.WeightOf(res.forest), 2);
}

TEST(DetMoatTest, OutputIsMinimalFeasible) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    SplitMix64 rng(seed ^ 0x555);
    const Graph g = MakeConnectedRandom(15, 0.25, 1, 20, rng);
    const IcInstance ic = MakeIcInstance(15, {{0, 1}, {7, 1}, {4, 2}, {12, 2}});
    const auto res = RunDistributedMoat(g, ic);
    EXPECT_TRUE(IsMinimalFeasible(g, MakeMinimal(ic), res.forest)) << seed;
  }
}

TEST(DetMoatTest, PhaseCountBoundedByTwoK) {
  // Lemma 4.4 (exact mode): at most 2k merge phases.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(20, 0.2, 1, 25, rng);
    const IcInstance ic =
        MakeIcInstance(20, {{0, 1}, {5, 1}, {9, 2}, {13, 2}, {3, 3}, {17, 3}});
    const auto res = RunDistributedMoat(g, ic);
    EXPECT_LE(res.phases, 2 * ic.NumComponents() + 1) << seed;
  }
}

TEST(DetMoatTest, UnitWeightsWithTies) {
  // Heavily tied instance (all unit weights, symmetric star): output must
  // still be feasible, a forest, and within factor 2.
  const Graph g = MakeStar(9);
  const IcInstance ic =
      MakeIcInstance(9, {{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {6, 3}});
  const auto res = RunDistributedMoat(g, ic);
  EXPECT_TRUE(IsFeasible(g, ic, res.forest));
  const Weight opt = ExactSteinerForestWeight(g, ic);
  EXPECT_LE(g.WeightOf(res.forest), 2 * opt);
}

TEST(DetMoatTest, RoundsScaleReasonably) {
  // Sanity guard on round complexity: O(k(s + D) + t) with moderate
  // constants. The sweeps of DESIGN.md §6 rows E3/E4 assert the scaling.
  SplitMix64 rng(42);
  const Graph g = MakeConnectedRandom(30, 0.12, 1, 20, rng);
  const IcInstance ic = MakeIcInstance(30, {{0, 1}, {15, 1}, {7, 2}, {23, 2}});
  const auto params = ComputeParameters(g);
  const auto res = RunDistributedMoat(g, ic);
  const long bound =
      200L * (2 * 2 + 2) *
          (params.shortest_path_diameter + params.unweighted_diameter + 8) +
      50L * 30;
  EXPECT_LE(res.stats.rounds, bound);
}

TEST(DetMoatTest, BandwidthDiscipline) {
  SplitMix64 rng(4);
  const Graph g = MakeConnectedRandom(20, 0.2, 1, 30, rng);
  const IcInstance ic = MakeIcInstance(20, {{0, 1}, {10, 1}, {5, 2}, {15, 2}});
  const auto res = RunDistributedMoat(g, ic);
  // CONGEST discipline: per-edge per-round traffic stays within the model's
  // O(log n) budget (with the documented constant).
  EXPECT_LE(res.stats.max_bits_per_edge_round, 3 * 96);
}

}  // namespace
}  // namespace dsf
