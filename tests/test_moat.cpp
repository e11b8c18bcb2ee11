// Tests for the centralized moat-growing algorithms (Algorithm 1 / 2) and the
// shared MoatBook bookkeeping.
#include "steiner/moat.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "steiner/exact.hpp"
#include "steiner/mst.hpp"
#include "steiner/validate.hpp"
#include "steiner_reference.hpp"

namespace dsf {
namespace {

// --- Fixed-point helpers ---

TEST(FixedTest, Conversions) {
  EXPECT_EQ(ToFixed(1), kFixedOne);
  EXPECT_EQ(ToFixed(5), 5 * kFixedOne);
  EXPECT_EQ(FixedToReal(kFixedOne), 1.0L);
  EXPECT_EQ(FixedToReal(kFixedOne / 2), 0.5L);
}

TEST(FixedTest, HalfUpRounding) {
  EXPECT_EQ(HalfUp(4), 2);
  EXPECT_EQ(HalfUp(5), 3);
  EXPECT_EQ(HalfUp(0), 0);
  EXPECT_EQ(HalfUp(1), 1);
}

// --- MoatBook ---

TEST(MoatBookTest, InitialState) {
  const std::vector<NodeId> terms{2, 5, 7, 9};
  const std::vector<Label> labels{1, 1, 2, 2};
  MoatBook book(terms, labels, MoatMode::kExact);
  EXPECT_EQ(book.NumTerminals(), 4);
  EXPECT_EQ(book.NumActiveMoats(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(book.ActiveTerminal(i));
    EXPECT_EQ(book.RadOf(i), 0);
  }
  EXPECT_EQ(book.IndexOf(5), 1);
  EXPECT_EQ(book.IndexOf(4), -1);
}

TEST(MoatBookTest, SingletonLabelStartsInactive) {
  const std::vector<NodeId> terms{0, 1, 2};
  const std::vector<Label> labels{1, 1, 5};  // label 5 is a singleton
  MoatBook book(terms, labels, MoatMode::kExact);
  EXPECT_TRUE(book.ActiveTerminal(0));
  EXPECT_FALSE(book.ActiveTerminal(2));
  EXPECT_EQ(book.NumActiveMoats(), 2);
}

TEST(MoatBookTest, MergeCompletingComponentDeactivates) {
  const std::vector<NodeId> terms{0, 1};
  const std::vector<Label> labels{3, 3};
  MoatBook book(terms, labels, MoatMode::kExact);
  const auto r = book.GrowAndMerge(ToFixed(2), 0, 1, 0);
  EXPECT_TRUE(r.activity_changed);
  EXPECT_TRUE(r.became_inactive);
  EXPECT_FALSE(r.involved_inactive);
  EXPECT_EQ(book.NumActiveMoats(), 0);
  EXPECT_EQ(book.RadOf(0), ToFixed(2));
  EXPECT_EQ(book.DualSum(), 2 * ToFixed(2));
}

TEST(MoatBookTest, CrossComponentMergeStaysActive) {
  const std::vector<NodeId> terms{0, 1, 2, 3};
  const std::vector<Label> labels{1, 1, 2, 2};
  MoatBook book(terms, labels, MoatMode::kExact);
  // Merge a label-1 terminal with a label-2 terminal: classes merge, the
  // moat stays active (2 of 4 class members inside).
  const auto r = book.GrowAndMerge(kFixedOne, 0, 2, 0);
  EXPECT_FALSE(r.activity_changed);
  EXPECT_FALSE(r.became_inactive);
  EXPECT_EQ(book.NumActiveMoats(), 3);
  // Completing the merged class requires both remaining terminals.
  book.GrowAndMerge(0, 0, 1, 0);
  EXPECT_EQ(book.NumActiveMoats(), 2);
  const auto r3 = book.GrowAndMerge(0, 2, 3, 0);
  EXPECT_TRUE(r3.became_inactive);
  EXPECT_EQ(book.NumActiveMoats(), 0);
}

TEST(MoatBookTest, RoundedModeDefersDeactivation) {
  const std::vector<NodeId> terms{0, 1};
  const std::vector<Label> labels{3, 3};
  MoatBook book(terms, labels, MoatMode::kRounded);
  const auto r = book.GrowAndMerge(kFixedOne, 0, 1, 0);
  EXPECT_FALSE(r.became_inactive);
  EXPECT_EQ(book.NumActiveMoats(), 1);  // still active (Algorithm 2 line 33)
  EXPECT_EQ(book.GrowAndCheckpoint(0), 1);
  EXPECT_EQ(book.NumActiveMoats(), 0);
}

TEST(MoatBookTest, InactiveMoatReactivatesOnMerge) {
  const std::vector<NodeId> terms{0, 1, 2, 3};
  const std::vector<Label> labels{1, 1, 2, 2};
  MoatBook book(terms, labels, MoatMode::kExact);
  book.GrowAndMerge(kFixedOne, 0, 1, 0);  // completes label 1 -> inactive
  EXPECT_FALSE(book.ActiveTerminal(0));
  const auto r = book.GrowAndMerge(kFixedOne, 2, 0, 1);  // active 2 + inactive
  EXPECT_TRUE(r.involved_inactive);
  EXPECT_TRUE(r.activity_changed);
  EXPECT_TRUE(book.ActiveTerminal(0));  // reactivated
  // Rad of 0 grew only while active (the first merge).
  EXPECT_EQ(book.RadOf(0), kFixedOne);
  EXPECT_EQ(book.RadOf(2), 2 * kFixedOne);
}

// --- Centralized Algorithm 1 ---

TEST(MoatGrowingTest, TwoTerminalsPickShortestPath) {
  // Diamond: cheap route 0-1-3 (weight 2), expensive 0-2-3 (weight 4).
  const Graph g = MakeGraph(4, {{0, 1, 1}, {1, 3, 1}, {0, 2, 3}, {2, 3, 1}});
  const IcInstance ic = MakeIcInstance(4, {{0, 9}, {3, 9}});
  const auto res = CentralizedMoatGrowing(g, ic);
  EXPECT_TRUE(IsFeasible(g, ic, res.forest));
  EXPECT_EQ(g.WeightOf(res.forest), 2);
  EXPECT_EQ(res.merges.size(), 1u);
  EXPECT_TRUE(res.merges[0].both_active);
}

TEST(MoatGrowingTest, OutputIsMinimalFeasibleForest) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(18, 0.2, 1, 20, rng);
    const IcInstance ic =
        MakeIcInstance(18, {{0, 1}, {5, 1}, {9, 2}, {13, 2}, {17, 2}});
    const auto res = CentralizedMoatGrowing(g, ic);
    EXPECT_TRUE(g.IsForest(res.forest)) << seed;
    EXPECT_TRUE(IsMinimalFeasible(g, ic, res.forest)) << seed;
  }
}

TEST(MoatGrowingTest, TwoApproxAgainstExactOnRandomInstances) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(14, 0.25, 1, 16, rng);
    const IcInstance ic = MakeIcInstance(14, {{0, 1}, {3, 1}, {6, 2}, {9, 2}});
    const auto res = CentralizedMoatGrowing(g, ic);
    const Weight opt = ExactSteinerForestWeight(g, ic);
    ASSERT_LT(opt, kInfWeight);
    EXPECT_TRUE(IsFeasible(g, ic, res.forest));
    EXPECT_LE(g.WeightOf(res.forest), 2 * opt) << "seed " << seed;
    EXPECT_GE(g.WeightOf(res.forest), opt) << "seed " << seed;
  }
}

TEST(MoatGrowingTest, DualSumLowerBoundsOutput) {
  // Theorem 4.1's chain: W(F) < 2 * Σ act_i µ_i <= 2 * OPT.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SplitMix64 rng(seed ^ 0xABC);
    const Graph g = MakeConnectedRandom(20, 0.2, 1, 25, rng);
    const IcInstance ic =
        MakeIcInstance(20, {{0, 1}, {4, 1}, {8, 2}, {12, 2}, {16, 3}, {19, 3}});
    const auto res = CentralizedMoatGrowing(g, ic);
    const Fixed weight_fixed = ToFixed(g.WeightOf(res.forest));
    // Small slop for the 2^-12 event-time quantization.
    const Fixed slop = static_cast<Fixed>(res.merges.size() + 1) * 8;
    EXPECT_LE(weight_fixed, 2 * res.dual_sum + slop) << seed;
  }
}

TEST(MoatGrowingTest, SteinerTreeSpecialCaseIsTerminalMst) {
  // k = 1: the output is (the graph edges of) an MST of the terminal metric;
  // with all nodes terminals it is exactly an MST (paper, Main Techniques).
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(16, 0.3, 1, 50, rng);
    std::vector<std::pair<NodeId, Label>> assign;
    for (NodeId v = 0; v < 16; ++v) assign.push_back({v, 1});
    const IcInstance ic = MakeIcInstance(16, assign);
    const auto res = CentralizedMoatGrowing(g, ic);
    EXPECT_EQ(g.WeightOf(res.forest), MstWeight(g)) << seed;
  }
}

TEST(MoatGrowingTest, EmptyInstance) {
  const Graph g = MakePath(5);
  const IcInstance ic = MakeIcInstance(5, {});
  const auto res = CentralizedMoatGrowing(g, ic);
  EXPECT_TRUE(res.forest.empty());
  EXPECT_TRUE(res.merges.empty());
}

TEST(MoatGrowingTest, SingletonComponentsIgnored) {
  const Graph g = MakePath(5);
  const IcInstance ic = MakeIcInstance(5, {{0, 1}, {2, 1}, {4, 9}});
  const auto res = CentralizedMoatGrowing(g, ic);
  EXPECT_TRUE(IsFeasible(g, MakeMinimal(ic), res.forest));
  EXPECT_EQ(g.WeightOf(res.forest), 2);  // just 0-1-2
}

TEST(MoatGrowingTest, InfeasibleInstanceThrows) {
  Graph g(4);
  g.AddEdge(0, 1, 1);
  g.AddEdge(2, 3, 1);
  g.Finalize();
  const IcInstance ic = MakeIcInstance(4, {{0, 1}, {3, 1}});
  EXPECT_THROW(CentralizedMoatGrowing(g, ic), std::logic_error);
}

TEST(MoatGrowingTest, ExactAtTheEdgeWeightCap) {
  // Every edge at the text formats' cap: radii and slacks reach ToFixed of
  // multi-edge path weights, and both algorithms must still return the
  // optimal path forest with a dual that lower-bounds it (up to Algorithm
  // 2's factor 1 + ε/2).
  const int n = 200;
  const Graph g = MakePath(n, kMaxEdgeWeight);
  const IcInstance ic =
      MakeIcInstance(n, {{0, 1}, {n - 1, 1}, {60, 2}, {140, 2}});
  const Weight opt = (n - 1) * kMaxEdgeWeight;
  for (const Real eps : {0.0L, 0.5L}) {
    MoatOptions options;
    options.epsilon = eps;
    const auto res = CentralizedMoatGrowing(g, ic, options);
    EXPECT_TRUE(IsFeasible(g, ic, res.forest)) << eps;
    EXPECT_EQ(g.WeightOf(res.forest), opt) << eps;
    EXPECT_GT(res.dual_sum, 0) << eps;
    EXPECT_LE(FixedToReal(res.dual_sum),
              (1.0L + eps / 2.0L) * static_cast<Real>(opt))
        << eps;
  }
}

// Lemma 4.4: the number of merge phases is at most 2k.
TEST(MoatGrowingTest, MergePhasesBoundedByTwoK) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(24, 0.15, 1, 30, rng);
    const IcInstance ic = MakeIcInstance(
        24, {{0, 1}, {4, 1}, {8, 2}, {12, 2}, {16, 3}, {20, 3}, {2, 4}, {22, 4}});
    const auto res = CentralizedMoatGrowing(g, ic);
    const int k = ic.NumComponents();
    EXPECT_LE(res.merge_phases, 2 * k) << seed;
  }
}

// --- Algorithm 2 (rounded radii) ---

TEST(MoatGrowingRoundedTest, FeasibleAndWithinTwoPlusEps) {
  const Real eps = 0.5L;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(14, 0.25, 1, 16, rng);
    const IcInstance ic = MakeIcInstance(14, {{0, 1}, {3, 1}, {6, 2}, {9, 2}});
    MoatOptions opt;
    opt.epsilon = eps;
    const auto res = CentralizedMoatGrowing(g, ic, opt);
    const Weight optw = ExactSteinerForestWeight(g, ic);
    EXPECT_TRUE(IsFeasible(g, ic, res.forest)) << seed;
    EXPECT_LE(static_cast<Real>(g.WeightOf(res.forest)),
              (2.0L + eps) * static_cast<Real>(optw) + 0.01L)
        << seed;
    EXPECT_GT(res.growth_phases, 0) << seed;
  }
}

TEST(MoatGrowingRoundedTest, GrowthPhasesLogarithmic) {
  // Lemma F.1: #growth phases <= 1 + ceil(log_{1+eps/2}(WD / 2)).
  SplitMix64 rng(11);
  const Graph g = MakeConnectedRandom(30, 0.1, 1, 64, rng);
  MoatOptions opt;
  opt.epsilon = 1.0L;
  const IcInstance ic = MakeIcInstance(30, {{0, 1}, {15, 1}, {7, 2}, {23, 2}});
  const auto res = CentralizedMoatGrowing(g, ic, opt);
  // WD <= 30 * 64; log_{1.5} of that is ~18.7.
  EXPECT_LE(res.growth_phases, 22);
}

TEST(MoatGrowingRoundedTest, SmallEpsilonApproachesAlgorithmOne) {
  SplitMix64 rng(3);
  const Graph g = MakeConnectedRandom(16, 0.2, 1, 12, rng);
  const IcInstance ic = MakeIcInstance(16, {{0, 1}, {5, 1}, {10, 2}, {15, 2}});
  const auto exact = CentralizedMoatGrowing(g, ic);
  MoatOptions opt;
  opt.epsilon = 0.01L;
  const auto rounded = CentralizedMoatGrowing(g, ic, opt);
  // Outputs need not be identical, but weights should be close.
  const auto we = g.WeightOf(exact.forest);
  const auto wr = g.WeightOf(rounded.forest);
  EXPECT_LE(static_cast<Real>(wr), 1.1L * static_cast<Real>(we));
}

}  // namespace
}  // namespace dsf
