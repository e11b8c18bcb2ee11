// Parameterized property sweeps: the core invariants, asserted across a grid
// of topologies × seeds × component counts. These are the "always true"
// statements the paper's proofs guarantee:
//
//   P1  the distributed deterministic protocol replays the centralized
//       Algorithm 1 merge log exactly (same pairs, µ values, dual sum);
//   P2  outputs are minimal feasible forests;
//   P3  W(F) < 2·Σ act·µ  (the primal-dual certificate of Theorem 4.1);
//   P4  the number of merge phases is at most 2k (Lemma 4.4);
//   P5  the randomized algorithm's output is feasible and no lighter than
//       the optimum (sanity), and deterministic given the seed;
//   P6  the distributed transformations agree with their centralized
//       references (Lemmas 2.3/2.4).
#include <gtest/gtest.h>

#include <tuple>

#include "dist/det_moat.hpp"
#include "dist/randomized.hpp"
#include "dist/transform.hpp"
#include "graph/generators.hpp"
#include "steiner/moat.hpp"
#include "steiner/validate.hpp"
#include "steiner_reference.hpp"

namespace dsf {
namespace {

enum class Topology { kRandom, kGeometric, kGrid, kCycle, kCaterpillar, kTreeChords };

std::string TopologyName(Topology t) {
  switch (t) {
    case Topology::kRandom: return "Random";
    case Topology::kGeometric: return "Geometric";
    case Topology::kGrid: return "Grid";
    case Topology::kCycle: return "Cycle";
    case Topology::kCaterpillar: return "Caterpillar";
    case Topology::kTreeChords: return "TreeChords";
  }
  return "?";
}

Graph MakeTopology(Topology t, std::uint64_t seed) {
  SplitMix64 rng(seed * 977 + 13);
  switch (t) {
    case Topology::kRandom:
      return MakeConnectedRandom(18, 0.18, 1, 20, rng);
    case Topology::kGeometric:
      return MakeRandomGeometric(18, 0.35, 40, rng);
    case Topology::kGrid:
      return MakeGrid(4, 5, 1, 7, rng);
    case Topology::kCycle:
      return MakeCycle(18, 3);
    case Topology::kCaterpillar:
      return MakeCaterpillar(6, 2, 2, 5);
    case Topology::kTreeChords:
      return MakeTreePlusChords(18, 6, 3, 8, rng);
  }
  return MakePath(2);
}

IcInstance MakeSweepInstance(int n, int k, std::uint64_t seed) {
  SplitMix64 rng(seed * 31 + 7);
  std::vector<std::pair<NodeId, Label>> assign;
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  for (int c = 0; c < k; ++c) {
    for (int j = 0; j < 2; ++j) {
      NodeId v;
      do {
        v = static_cast<NodeId>(rng.NextBelow(static_cast<std::uint64_t>(n)));
      } while (used[static_cast<std::size_t>(v)]);
      used[static_cast<std::size_t>(v)] = 1;
      assign.push_back({v, static_cast<Label>(c + 1)});
    }
  }
  return MakeIcInstance(n, assign);
}

using SweepParam = std::tuple<Topology, int /*k*/, std::uint64_t /*seed*/>;

class MoatSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(MoatSweep, DistributedReplaysCentralizedAndIsSound) {
  const auto [topo, k, seed] = GetParam();
  const Graph g = MakeTopology(topo, seed);
  const IcInstance ic = MakeSweepInstance(g.NumNodes(), k, seed);

  const auto dist = RunDistributedMoat(g, ic, {}, seed + 1);
  const auto cent = CentralizedMoatGrowing(g, ic);

  // P1: identical merge logs.
  ASSERT_EQ(dist.merges.size(), cent.merges.size());
  for (std::size_t i = 0; i < dist.merges.size(); ++i) {
    EXPECT_EQ(dist.merges[i].v, cent.merges[i].v) << i;
    EXPECT_EQ(dist.merges[i].w, cent.merges[i].w) << i;
    EXPECT_EQ(dist.merges[i].mu, cent.merges[i].mu) << i;
  }
  EXPECT_EQ(dist.dual_sum, cent.dual_sum);

  // P2: minimal feasible forest.
  const IcInstance minimal = MakeMinimal(ic);
  EXPECT_TRUE(g.IsForest(dist.forest));
  EXPECT_TRUE(IsMinimalFeasible(g, minimal, dist.forest));
  EXPECT_EQ(g.WeightOf(dist.forest), g.WeightOf(cent.forest));

  // P3: primal-dual certificate (allowing the 2^-12 quantization slop).
  const Fixed slop = static_cast<Fixed>(dist.merges.size() + 1) * 8;
  EXPECT_LE(ToFixed(g.WeightOf(dist.forest)), 2 * dist.dual_sum + slop);

  // P4: phase bound (Lemma 4.4).
  EXPECT_LE(dist.phases, 2 * k + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MoatSweep,
    ::testing::Combine(::testing::Values(Topology::kRandom, Topology::kGeometric,
                                         Topology::kGrid, Topology::kCycle,
                                         Topology::kCaterpillar,
                                         Topology::kTreeChords),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return TopologyName(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

class RoundedSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RoundedSweep, RoundedModeMatchesCentralizedAlgorithmTwo) {
  const auto [topo, k, seed] = GetParam();
  const Graph g = MakeTopology(topo, seed);
  const IcInstance ic = MakeSweepInstance(g.NumNodes(), k, seed);

  DetMoatOptions dopt;
  dopt.epsilon = 0.5L;
  MoatOptions copt;
  copt.epsilon = 0.5L;
  const auto dist = RunDistributedMoat(g, ic, dopt, seed + 1);
  const auto cent = CentralizedMoatGrowing(g, ic, copt);

  ASSERT_EQ(dist.merges.size(), cent.merges.size());
  for (std::size_t i = 0; i < dist.merges.size(); ++i) {
    EXPECT_EQ(dist.merges[i].mu, cent.merges[i].mu) << i;
    EXPECT_EQ(dist.merges[i].v, cent.merges[i].v) << i;
  }
  EXPECT_EQ(g.WeightOf(dist.forest), g.WeightOf(cent.forest));
  EXPECT_TRUE(IsFeasible(g, MakeMinimal(ic), dist.forest));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RoundedSweep,
    ::testing::Combine(::testing::Values(Topology::kRandom, Topology::kGrid,
                                         Topology::kCycle),
                       ::testing::Values(2, 3),
                       ::testing::Values(std::uint64_t{4}, std::uint64_t{5})),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return TopologyName(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

class RandomizedSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RandomizedSweep, FeasibleDeterministicAndSane) {
  const auto [topo, k, seed] = GetParam();
  const Graph g = MakeTopology(topo, seed);
  const IcInstance ic = MakeSweepInstance(g.NumNodes(), k, seed);
  const IcInstance minimal = MakeMinimal(ic);

  const auto a = RunRandomizedSteinerForest(g, ic, {}, seed + 1);
  EXPECT_TRUE(IsFeasible(g, minimal, a.forest));
  EXPECT_TRUE(g.IsForest(a.forest) || !a.forest.empty());

  // P5: bit-determinism given the seed.
  const auto b = RunRandomizedSteinerForest(g, ic, {}, seed + 1);
  EXPECT_EQ(a.forest, b.forest);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RandomizedSweep,
    ::testing::Combine(::testing::Values(Topology::kRandom, Topology::kGrid,
                                         Topology::kCycle,
                                         Topology::kTreeChords),
                       ::testing::Values(1, 3),
                       ::testing::Values(std::uint64_t{6}, std::uint64_t{7})),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return TopologyName(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

class TransformSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransformSweep, DistributedTransformsMatchCentralized) {
  const std::uint64_t seed = GetParam();
  SplitMix64 rng(seed * 131 + 17);
  const Graph g = MakeConnectedRandom(22, 0.15, 1, 9, rng);

  // P6a: CR -> IC.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 7; ++i) {
    const auto u = static_cast<NodeId>(rng.NextBelow(22));
    const auto v = static_cast<NodeId>(rng.NextBelow(22));
    if (u != v) pairs.push_back({u, v});
  }
  const CrInstance cr = MakeCrInstance(22, pairs);
  const auto x1 = RunDistributedCrToIc(g, cr, seed);
  EXPECT_TRUE(EquivalentInstances(x1.instance, CrToIc(cr)));

  // P6b: IC -> minimal.
  std::vector<std::pair<NodeId, Label>> assign;
  for (int i = 0; i < 9; ++i) {
    assign.push_back({static_cast<NodeId>(rng.NextBelow(22)),
                      static_cast<Label>(1 + rng.NextBelow(4))});
  }
  const IcInstance ic = MakeIcInstance(22, assign);
  const auto x2 = RunDistributedMakeMinimal(g, ic, seed);
  EXPECT_TRUE(EquivalentInstances(x2.instance, MakeMinimal(ic)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformSweep,
                         ::testing::Range(std::uint64_t{0}, std::uint64_t{10}));

}  // namespace
}  // namespace dsf
