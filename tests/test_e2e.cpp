// End-to-end integration: the full pipeline a user of the library runs, plus
// cross-algorithm consistency on shared instances.
#include <gtest/gtest.h>

#include <algorithm>

#include "dist/det_moat.hpp"
#include "dist/randomized.hpp"
#include "dist/transform.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "steiner/exact.hpp"
#include "steiner/validate.hpp"
#include "workload/samplers.hpp"

namespace dsf {
namespace {

TEST(EndToEndTest, CrPipelineDeterministic) {
  // DSF-CR input -> distributed Lemma 2.3 transform -> deterministic solve.
  SplitMix64 rng(11);
  const Graph g = MakeRandomGeometric(30, 0.3, 50, rng);
  const CrInstance cr = MakeCrInstance(30, {{0, 12}, {12, 25}, {3, 17}});

  const auto xform = RunDistributedCrToIc(g, cr);
  const auto solved = RunDistributedMoat(g, xform.instance);
  EXPECT_TRUE(IsFeasibleCr(g, cr, solved.forest));

  // Lemma 2.3 promises equivalence: solving the transformed instance solves
  // the original requests, and the weight matches solving the centralized
  // transformation directly.
  const auto direct = RunDistributedMoat(g, CrToIc(cr));
  EXPECT_EQ(g.WeightOf(solved.forest), g.WeightOf(direct.forest));
}

TEST(EndToEndTest, CrPipelineRandomized) {
  SplitMix64 rng(21);
  const Graph g = MakeConnectedRandom(26, 0.15, 1, 12, rng);
  const CrInstance cr = MakeCrInstance(26, {{1, 20}, {5, 14}, {14, 22}});
  const auto xform = RunDistributedCrToIc(g, cr);
  const auto solved = RunRandomizedSteinerForest(g, xform.instance, {}, 2);
  EXPECT_TRUE(IsFeasibleCr(g, cr, solved.forest));
}

TEST(EndToEndTest, NonMinimalInputThroughMinimizationThenSolve) {
  SplitMix64 rng(31);
  const Graph g = MakeConnectedRandom(20, 0.2, 1, 10, rng);
  // Labels 1 and 2 are real; 3, 4 are singletons to be dropped.
  const IcInstance ic =
      MakeIcInstance(20, {{0, 1}, {9, 1}, {4, 2}, {15, 2}, {7, 3}, {11, 4}});
  const auto minimal = RunDistributedMakeMinimal(g, ic);
  const auto solved = RunDistributedMoat(g, minimal.instance);
  EXPECT_TRUE(IsFeasible(g, MakeMinimal(ic), solved.forest));
  // Dropping singletons must not change the solution weight.
  const auto direct = RunDistributedMoat(g, ic);
  EXPECT_EQ(g.WeightOf(solved.forest), g.WeightOf(direct.forest));
}

TEST(EndToEndTest, DetNeverWorseThanTwiceRandomizedOrViceVersa) {
  // Both algorithms solve the same instances; det <= 2 OPT always, so det
  // can never exceed 2x the randomized weight (which is >= OPT).
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    SplitMix64 rng(seed * 7 + 5);
    const Graph g = MakeConnectedRandom(18, 0.2, 1, 18, rng);
    const IcInstance ic =
        MakeIcInstance(18, {{0, 1}, {8, 1}, {5, 2}, {14, 2}});
    const auto det = RunDistributedMoat(g, ic, {}, seed + 1);
    const auto rnd = RunRandomizedSteinerForest(g, ic, {}, seed + 1);
    EXPECT_LE(g.WeightOf(det.forest), 2 * g.WeightOf(rnd.forest)) << seed;
  }
}

TEST(EndToEndTest, DetRoundsRiseWithKWhileRandStaysFlat) {
  // Theorem 4.17 vs Theorem 5.2 as k grows on a fixed 96-node cycle. Each
  // component's two terminals sit on its own arc, so components complete at
  // separate radii and dist-det pays one O(s) merge phase each: the sk term
  // makes its rounds rise strictly with k. dist-rand's O~(k + min{s,sqrt(n)}
  // + D) is dominated by its D = 48 terms here and stays within 10%.
  const int n = 96;
  const Graph g = MakeCycle(n);
  long prev_det = 0;
  std::vector<long> rand_rounds;
  for (int k = 1; k <= 8; ++k) {
    std::vector<std::pair<NodeId, Label>> assign;
    for (int c = 0; c < k; ++c) {
      const int base = c * n / k;
      const int span = std::max(2, n / (3 * k));
      assign.push_back({base, c + 1});
      assign.push_back({(base + span) % n, c + 1});
    }
    const IcInstance ic = MakeIcInstance(n, assign);
    const long det = RunDistributedMoat(g, ic).stats.rounds;
    EXPECT_GT(det, prev_det) << "k " << k;
    prev_det = det;
    rand_rounds.push_back(RunRandomizedSteinerForest(g, ic).stats.rounds);
  }
  const auto [lo, hi] =
      std::minmax_element(rand_rounds.begin(), rand_rounds.end());
  EXPECT_LE(10 * *hi, 11 * *lo);
}

TEST(EndToEndTest, RoundsGrowSlowerThanN) {
  // Sparse random graphs at expected degree 6 with k = 4: as n grows 4x,
  // s and D grow slowly, and neither protocol's round bound has a term
  // linear in n, so both stay under 2x.
  long det_rounds[2] = {0, 0};
  long rand_rounds[2] = {0, 0};
  const int sizes[2] = {32, 128};
  for (int i = 0; i < 2; ++i) {
    const int n = sizes[i];
    SplitMix64 rng(static_cast<std::uint64_t>(n) * 31 + 7);
    const Graph g = MakeConnectedRandom(n, 6.0 / n, 1, 32, rng);
    const std::pair<std::string, std::string> params[] = {{"k", "4"},
                                                          {"tpc", "2"}};
    const IcInstance ic =
        SampleInstance("random-ic", g, params,
                       static_cast<std::uint64_t>(n) * 31 + 8)
            .ic;
    det_rounds[i] = RunDistributedMoat(g, ic).stats.rounds;
    rand_rounds[i] = RunRandomizedSteinerForest(g, ic).stats.rounds;
  }
  EXPECT_LT(det_rounds[1], 2 * det_rounds[0]);
  EXPECT_LT(rand_rounds[1], 2 * rand_rounds[0]);
}

TEST(EndToEndTest, AdjacentTerminals) {
  // Terminals joined by a direct edge: the solution is that single edge.
  const Graph g = MakeGraph(4, {{0, 1, 2}, {1, 2, 5}, {2, 3, 5}, {0, 3, 20}});
  const IcInstance ic = MakeIcInstance(4, {{0, 7}, {1, 7}});
  const auto det = RunDistributedMoat(g, ic);
  EXPECT_EQ(g.WeightOf(det.forest), 2);
  const auto rnd = RunRandomizedSteinerForest(g, ic);
  EXPECT_TRUE(IsFeasible(g, ic, rnd.forest));
}

TEST(EndToEndTest, AllNodesOneComponent) {
  // Degenerate maximum-t case: every node is a terminal of one component.
  SplitMix64 rng(3);
  const Graph g = MakeConnectedRandom(14, 0.3, 1, 9, rng);
  std::vector<std::pair<NodeId, Label>> assign;
  for (NodeId v = 0; v < 14; ++v) assign.push_back({v, 42});
  const IcInstance ic = MakeIcInstance(14, assign);
  const auto det = RunDistributedMoat(g, ic);
  EXPECT_TRUE(IsFeasible(g, ic, det.forest));
  EXPECT_EQ(det.forest.size(), 13u);  // spanning tree
}

TEST(EndToEndTest, ParallelEdgesPickCheaper) {
  Graph g(3);
  g.AddEdge(0, 1, 10);
  g.AddEdge(0, 1, 2);  // parallel, cheaper
  g.AddEdge(1, 2, 3);
  g.Finalize();
  const IcInstance ic = MakeIcInstance(3, {{0, 5}, {2, 5}});
  const auto det = RunDistributedMoat(g, ic);
  EXPECT_TRUE(IsFeasible(g, ic, det.forest));
  EXPECT_EQ(g.WeightOf(det.forest), 5);
}

TEST(EndToEndTest, HeavyWeightSpread) {
  // Mixed magnitudes: weight 1 edges next to weight 10^5 edges.
  Graph g(6);
  g.AddEdge(0, 1, 1);
  g.AddEdge(1, 2, 100000);
  g.AddEdge(2, 3, 1);
  g.AddEdge(3, 4, 100000);
  g.AddEdge(4, 5, 1);
  g.AddEdge(0, 5, 250000);
  g.Finalize();
  const IcInstance ic = MakeIcInstance(6, {{0, 1}, {5, 1}});
  const auto det = RunDistributedMoat(g, ic);
  EXPECT_EQ(g.WeightOf(det.forest), 200003);  // along the path
  const Weight opt = ExactSteinerForestWeight(g, ic);
  EXPECT_LE(g.WeightOf(det.forest), 2 * opt);
}

TEST(EndToEndTest, TwoNodeGraph) {
  const Graph g = MakeGraph(2, {{0, 1, 7}});
  const IcInstance ic = MakeIcInstance(2, {{0, 1}, {1, 1}});
  const auto det = RunDistributedMoat(g, ic);
  EXPECT_EQ(det.forest, (std::vector<EdgeId>{0}));
  const auto rnd = RunRandomizedSteinerForest(g, ic);
  EXPECT_EQ(rnd.forest, (std::vector<EdgeId>{0}));
}

TEST(EndToEndTest, DisconnectedGraphRejected) {
  Graph g(4);
  g.AddEdge(0, 1, 1);
  g.AddEdge(2, 3, 1);
  g.Finalize();
  const IcInstance ic = MakeIcInstance(4, {{0, 1}, {1, 1}});
  EXPECT_THROW(RunDistributedMoat(g, ic), std::logic_error);
  EXPECT_THROW(RunRandomizedSteinerForest(g, ic), std::logic_error);
}

TEST(EndToEndTest, StatsAreInternallyConsistent) {
  SplitMix64 rng(13);
  const Graph g = MakeConnectedRandom(16, 0.25, 1, 10, rng);
  const IcInstance ic = MakeIcInstance(16, {{0, 1}, {9, 1}});
  const auto det = RunDistributedMoat(g, ic);
  EXPECT_GT(det.stats.rounds, 0);
  EXPECT_GT(det.stats.messages, 0);
  EXPECT_GT(det.stats.total_bits, det.stats.messages);  // >1 bit per message
  EXPECT_LE(det.stats.max_bits_per_edge_round, det.stats.total_bits);
  EXPECT_FALSE(det.stats.hit_round_limit);
  EXPECT_EQ(det.stats.cut_bits, 0);  // no cut registered
}

}  // namespace
}  // namespace dsf
