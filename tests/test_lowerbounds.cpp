// Tests for the Section 3 lower-bound gadgets and the Set-Disjointness
// harness.
#include "lowerbounds/disjointness.hpp"

#include <gtest/gtest.h>

#include "dist/det_moat.hpp"
#include "dist/randomized.hpp"
#include "graph/properties.hpp"
#include "steiner/exact.hpp"
#include "steiner/validate.hpp"

namespace dsf {
namespace {

TEST(SdInstanceTest, DisjointConstruction) {
  SplitMix64 rng(1);
  const auto sd = MakeSdInstance(12, true, rng);
  for (const int x : sd.a) {
    EXPECT_EQ(std::count(sd.b.begin(), sd.b.end(), x), 0);
  }
  EXPECT_GE(sd.a.size(), 4u);
  EXPECT_GE(sd.b.size(), 4u);
}

TEST(SdInstanceTest, IntersectingSharesExactlyOne) {
  SplitMix64 rng(2);
  const auto sd = MakeSdInstance(12, false, rng);
  int shared = 0;
  for (const int x : sd.a) {
    shared += static_cast<int>(std::count(sd.b.begin(), sd.b.end(), x));
  }
  EXPECT_EQ(shared, 1);
}

TEST(CrGadgetTest, StructureMatchesLemma31) {
  SplitMix64 rng(3);
  const auto sd = MakeSdInstance(8, true, rng);
  const auto gadget = BuildCrGadget(sd.a, sd.b, 8, 3);
  EXPECT_EQ(gadget.graph.NumNodes(), 2 * 8 + 4);
  EXPECT_TRUE(IsConnected(gadget.graph));
  // Lemma 3.1: diameter at most 4, at most two input components.
  EXPECT_LE(ComputeParameters(gadget.graph).unweighted_diameter, 4);
  const IcInstance ic = CrToIc(gadget.cr);
  EXPECT_LE(ic.NumComponents(), 2);
  EXPECT_EQ(gadget.cut.size(), 4u);
  EXPECT_EQ(gadget.heavy.size(), 2u);
}

TEST(CrGadgetTest, DisjointOptimumAvoidsHeavyEdges) {
  SplitMix64 rng(4);
  const auto sd = MakeSdInstance(6, true, rng);
  const auto gadget = BuildCrGadget(sd.a, sd.b, 6, 3);
  const IcInstance ic = CrToIc(gadget.cr);
  const Weight opt = ExactSteinerForestWeight(gadget.graph, ic);
  EXPECT_LE(opt, 2 * 6 + 2);
}

TEST(CrGadgetTest, DetAlgorithmAnswersSdCorrectly) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    SplitMix64 rng(seed);
    for (const bool disjoint : {true, false}) {
      const auto sd = MakeSdInstance(8, disjoint, rng);
      const auto outcome = RunCrGadgetWithDetAlgorithm(sd, 8, seed + 1);
      EXPECT_TRUE(outcome.correct)
          << "seed " << seed << " disjoint " << disjoint;
      EXPECT_GT(outcome.cut_bits, 0);
    }
  }
}

TEST(IcGadgetTest, StructureMatchesLemma33) {
  SplitMix64 rng(5);
  const auto sd = MakeSdInstance(10, true, rng);
  const auto gadget = BuildIcGadget(sd.a, sd.b, 10);
  EXPECT_EQ(gadget.graph.NumNodes(), 2 * 10 + 2);
  // Lemma 3.3: unweighted (all unit), diameter 3.
  EXPECT_EQ(ComputeParameters(gadget.graph).unweighted_diameter, 3);
  for (const auto& e : gadget.graph.Edges()) EXPECT_EQ(e.w, 1);
}

TEST(IcGadgetTest, DetAlgorithmAnswersSdCorrectly) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    SplitMix64 rng(seed ^ 0xF00);
    for (const bool disjoint : {true, false}) {
      const auto sd = MakeSdInstance(10, disjoint, rng);
      const auto outcome = RunIcGadgetWithDetAlgorithm(sd, 10, seed + 1);
      EXPECT_TRUE(outcome.correct)
          << "seed " << seed << " disjoint " << disjoint;
    }
  }
}

TEST(IcGadgetTest, RandAlgorithmAnswersSdCorrectly) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    SplitMix64 rng(seed ^ 0xBA5);
    for (const bool disjoint : {true, false}) {
      const auto sd = MakeSdInstance(8, disjoint, rng);
      const auto outcome = RunIcGadgetWithRandAlgorithm(sd, 8, seed + 1);
      EXPECT_TRUE(outcome.correct)
          << "seed " << seed << " disjoint " << disjoint;
    }
  }
}

TEST(CutBitsTest, GrowLinearlyWithUniverse) {
  // The empirical counterpart of Ω(k/log n): bits across the single-edge cut
  // must grow (roughly linearly) with the universe size.
  SplitMix64 rng(7);
  long bits_small = 0;
  long bits_large = 0;
  {
    const auto sd = MakeSdInstance(6, false, rng);
    bits_small = RunIcGadgetWithDetAlgorithm(sd, 6, 3).cut_bits;
  }
  {
    const auto sd = MakeSdInstance(24, false, rng);
    bits_large = RunIcGadgetWithDetAlgorithm(sd, 24, 3).cut_bits;
  }
  EXPECT_GT(bits_large, 2 * bits_small);
}

TEST(PathGadgetTest, StructureMatchesLemma34) {
  const auto gadget = BuildPathGadget(64, 4);
  const auto params = ComputeParameters(gadget.graph);
  EXPECT_TRUE(params.connected);
  // t = 2, k = 1, D small, s = path length.
  EXPECT_EQ(gadget.ic.NumTerminals(), 2);
  EXPECT_EQ(gadget.ic.NumComponents(), 1);
  EXPECT_LE(params.unweighted_diameter, 8);
  EXPECT_GE(params.shortest_path_diameter, 64);
}

TEST(PathGadgetTest, TruncationKeepsRandRoundsFlatAsSGrows) {
  // Lemma 3.4's regime (t = 2, k = 1, D = O(1), s = path length) with s
  // growing 8x. s^2 > n truncates dist-rand's embedding at ~sqrt(n) hops
  // (Theorem 5.2's min{s, sqrt(n)} term), so its simulated rounds barely
  // move, while dist-det's O(sk + t) rounds (Theorem 4.17) follow s. Stage
  // 2's charged m(s + D + 2) rounds (DESIGN.md §7) are reported apart and
  // are not part of this budget.
  long det_rounds[2] = {0, 0};
  long rand_rounds[2] = {0, 0};
  const int lengths[2] = {16, 128};
  for (int i = 0; i < 2; ++i) {
    const auto gadget = BuildPathGadget(lengths[i], 4);
    const auto det = RunDistributedMoat(gadget.graph, gadget.ic);
    const auto rnd = RunRandomizedSteinerForest(gadget.graph, gadget.ic);
    EXPECT_TRUE(rnd.truncated) << "length " << lengths[i];
    EXPECT_TRUE(IsFeasible(gadget.graph, gadget.ic, rnd.forest));
    det_rounds[i] = det.stats.rounds;
    rand_rounds[i] = rnd.stats.rounds;
  }
  EXPECT_LT(2 * rand_rounds[1], 3 * rand_rounds[0]);  // < 1.5x
  EXPECT_GT(det_rounds[1], 3 * det_rounds[0]);        // > 3x
}

}  // namespace
}  // namespace dsf
