// Tests for the distributed input transformations (Lemmas 2.3 / 2.4).
#include "dist/transform.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "steiner_reference.hpp"

namespace dsf {
namespace {

TEST(CrToIcDistTest, MatchesCentralizedOnFixtures) {
  const Graph g = MakePath(8);
  const CrInstance cr = MakeCrInstance(8, {{0, 3}, {3, 6}, {1, 5}});
  const auto res = RunDistributedCrToIc(g, cr);
  EXPECT_TRUE(EquivalentInstances(res.instance, CrToIc(cr)));
}

TEST(CrToIcDistTest, MatchesCentralizedOnRandomInstances) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(20, 0.15, 1, 9, rng);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (int i = 0; i < 6; ++i) {
      const auto u = static_cast<NodeId>(rng.NextBelow(20));
      const auto v = static_cast<NodeId>(rng.NextBelow(20));
      if (u != v) pairs.push_back({u, v});
    }
    const CrInstance cr = MakeCrInstance(20, pairs);
    const auto res = RunDistributedCrToIc(g, cr, seed);
    EXPECT_TRUE(EquivalentInstances(res.instance, CrToIc(cr))) << seed;
  }
}

TEST(CrToIcDistTest, LabelIsSmallestTerminalId) {
  const Graph g = MakeStar(6);
  const CrInstance cr = MakeCrInstance(6, {{5, 2}, {2, 4}});
  const auto res = RunDistributedCrToIc(g, cr);
  EXPECT_EQ(res.instance.LabelOf(2), 2);
  EXPECT_EQ(res.instance.LabelOf(4), 2);
  EXPECT_EQ(res.instance.LabelOf(5), 2);
  EXPECT_EQ(res.instance.LabelOf(0), kNoLabel);
}

TEST(CrToIcDistTest, EmptyRequests) {
  const Graph g = MakePath(5);
  const auto res = RunDistributedCrToIc(g, MakeCrInstance(5, {}));
  EXPECT_EQ(res.instance.NumTerminals(), 0);
}

TEST(CrToIcDistTest, RoundsLinearInRequestsPlusDiameter) {
  // Lemma 2.3: O(t + D).
  const Graph g = MakePath(40);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 10; ++i) pairs.push_back({i, 39 - i});
  const CrInstance cr = MakeCrInstance(40, pairs);
  const auto res = RunDistributedCrToIc(g, cr);
  EXPECT_LE(res.stats.rounds, 8 * (40 + 20));
}

TEST(MakeMinimalDistTest, DropsSingletons) {
  const Graph g = MakeCycle(8);
  const IcInstance ic = MakeIcInstance(8, {{0, 1}, {3, 1}, {5, 2}, {7, 3}});
  const auto res = RunDistributedMakeMinimal(g, ic);
  EXPECT_TRUE(EquivalentInstances(res.instance, MakeMinimal(ic)));
  EXPECT_EQ(res.instance.LabelOf(0), 1);
  EXPECT_EQ(res.instance.LabelOf(3), 1);
  EXPECT_EQ(res.instance.LabelOf(5), kNoLabel);
  EXPECT_EQ(res.instance.LabelOf(7), kNoLabel);
}

TEST(MakeMinimalDistTest, MatchesCentralizedOnRandomInstances) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(24, 0.15, 1, 9, rng);
    std::vector<std::pair<NodeId, Label>> assign;
    for (int i = 0; i < 10; ++i) {
      const auto v = static_cast<NodeId>(rng.NextBelow(24));
      const auto lab = static_cast<Label>(1 + rng.NextBelow(5));
      assign.push_back({v, lab});
    }
    const IcInstance ic = MakeIcInstance(24, assign);
    const auto res = RunDistributedMakeMinimal(g, ic, seed);
    EXPECT_TRUE(EquivalentInstances(res.instance, MakeMinimal(ic))) << seed;
  }
}

TEST(MakeMinimalDistTest, AllMinimalAlreadyKept) {
  const Graph g = MakePath(6);
  const IcInstance ic = MakeIcInstance(6, {{0, 1}, {5, 1}, {2, 2}, {3, 2}});
  const auto res = RunDistributedMakeMinimal(g, ic);
  EXPECT_TRUE(EquivalentInstances(res.instance, ic));
}

TEST(MakeMinimalDistTest, RoundsLinearInComponentsPlusDiameter) {
  // Lemma 2.4: O(k + D); with k = 3 on a path of length 50 this is ~O(D).
  const Graph g = MakePath(50);
  const IcInstance ic =
      MakeIcInstance(50, {{0, 1}, {49, 1}, {10, 2}, {20, 2}, {30, 3}, {40, 3}});
  const auto res = RunDistributedMakeMinimal(g, ic);
  EXPECT_LE(res.stats.rounds, 8 * (50 + 10));
}

}  // namespace
}  // namespace dsf
