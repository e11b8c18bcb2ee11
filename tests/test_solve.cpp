// The unified solver layer: registry lookups, the shared pipeline on both
// input forms, and the cross-solver consistency sweep — every registered
// solver must return a feasible forest, and the deterministic solver must
// stay within its (2+ε) bound of the primal-dual lower bound reported by
// gw-moat (Theorem 4.1 / 4.2, Lemma C.4).
#include "solve/solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "graph/generators.hpp"
#include "solve/solver_spec.hpp"
#include "steiner/instance.hpp"
#include "steiner/validate.hpp"

namespace dsf {
namespace {

const std::vector<std::string_view> kAllSolvers{
    "exact",        "gw-moat",  "mst-prune", "greedy-merge", "local-search",
    "dist-det",     "dist-rand", "dist-khan", "portfolio"};

IcInstance GridInstance() {
  return MakeIcInstance(16, {{0, 1}, {15, 1}, {3, 2}, {12, 2}});
}

TEST(SolverRegistryTest, KnowsAllNineFamilies) {
  EXPECT_EQ(SolverRegistry::Names(), kAllSolvers);
  for (const auto name : kAllSolvers) {
    const Solver* s = SolverRegistry::Find(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->Name(), name);
    EXPECT_FALSE(s->Description().empty());
    EXPECT_EQ(&SolverRegistry::Get(name), s);
  }
  EXPECT_TRUE(SolverRegistry::Find("exact")->Distributed() == false);
  EXPECT_TRUE(SolverRegistry::Get("dist-det").Distributed());
}

TEST(SolverRegistryTest, UnknownNameFailsLoudly) {
  EXPECT_EQ(SolverRegistry::Find("nope"), nullptr);
  EXPECT_THROW((void)SolverRegistry::Get("nope"), std::logic_error);
  SolveRequest req;
  req.solver = "nope";
  // The pipeline rejects the name at the spec-parsing stage.
  EXPECT_THROW(Solve(req), std::runtime_error);
}

TEST(SolvePipelineTest, UniformResultAcrossFamilies) {
  SplitMix64 rng(7);
  const Graph g = MakeGrid(4, 4, 1, 5, rng);
  const IcInstance ic = GridInstance();
  const Weight opt = Solve("exact", g, ic).weight;
  ASSERT_GT(opt, 0);
  for (const auto name : kAllSolvers) {
    const SolveResult res = Solve(name, g, ic);
    // Result names are canonicalized specs — bare "portfolio" stringifies
    // with its default roster spelled out.
    EXPECT_EQ(res.solver, ParseSolverSpec(name).Canonical());
    EXPECT_TRUE(res.validated);
    EXPECT_TRUE(res.feasible) << name;
    EXPECT_TRUE(g.IsForest(res.forest)) << name;
    EXPECT_EQ(res.weight, g.WeightOf(res.forest)) << name;
    EXPECT_GE(res.weight, opt) << name;
    EXPECT_TRUE(std::is_sorted(res.forest.begin(), res.forest.end())) << name;
    const bool distributed = SolverRegistry::Get(name).Distributed();
    if (distributed) {
      EXPECT_GT(res.stats.rounds, 0) << name;
      EXPECT_GT(res.stats.messages, 0) << name;
    } else {
      EXPECT_EQ(res.stats.rounds, 0) << name;
    }
  }
}

TEST(SolvePipelineTest, DistributedMatchesCentralizedMoat) {
  // The repo's central invariant, restated through the registry: dist-det
  // replays gw-moat merge by merge, so weights and dual sums coincide.
  SplitMix64 rng(3);
  const Graph g = MakeConnectedRandom(24, 0.2, 1, 12, rng);
  const IcInstance ic =
      MakeIcInstance(24, {{0, 1}, {20, 1}, {5, 2}, {17, 2}, {9, 3}, {13, 3}});
  const SolveResult det = Solve("dist-det", g, ic);
  const SolveResult gw = Solve("gw-moat", g, ic);
  EXPECT_EQ(det.weight, gw.weight);
  EXPECT_EQ(det.dual_lower_bound, gw.dual_lower_bound);
  EXPECT_EQ(det.forest, gw.forest);
}

TEST(SolvePipelineTest, CrInputRoutesThroughDistributedTransform) {
  SplitMix64 rng(7);
  const Graph g = MakeGrid(4, 4, 1, 5, rng);
  const CrInstance cr = MakeCrInstance(16, {{1, 14}, {14, 11}, {2, 8}});
  for (const auto name : kAllSolvers) {
    const SolveResult res = Solve(name, g, cr);
    EXPECT_TRUE(res.feasible) << name;
    EXPECT_GT(res.transform_rounds, 0) << name;
    EXPECT_TRUE(IsFeasibleCr(g, cr, res.forest)) << name;
  }
  // The transform must agree with the centralized Lemma 2.3 reference.
  const SolveResult via_cr = Solve("dist-det", g, cr);
  const SolveResult via_ic = Solve("dist-det", g, CrToIc(cr));
  EXPECT_EQ(via_cr.weight, via_ic.weight);
  EXPECT_EQ(via_cr.forest, via_ic.forest);
}

TEST(SolvePipelineTest, ReferenceAccounting) {
  SplitMix64 rng(7);
  const Graph g = MakeGrid(4, 4, 1, 5, rng);
  const IcInstance ic = GridInstance();
  SolveOptions opt;
  opt.compute_reference = true;
  const SolveResult exact = Solve("exact", g, ic, opt);
  EXPECT_EQ(exact.reference_weight, exact.weight);
  EXPECT_DOUBLE_EQ(exact.approx_ratio, 1.0);
  const SolveResult det = Solve("dist-det", g, ic, opt);
  EXPECT_GT(det.reference_weight, 0);
  EXPECT_GE(det.approx_ratio, 1.0);
  EXPECT_LT(det.approx_ratio, 2.0);  // Theorem 4.1 (strict)
}

TEST(SolvePipelineTest, SeedDeterminism) {
  SplitMix64 rng(5);
  const Graph g = MakeConnectedRandom(20, 0.25, 1, 10, rng);
  const IcInstance ic =
      MakeIcInstance(20, {{0, 1}, {19, 1}, {4, 2}, {15, 2}});
  for (const auto name : kAllSolvers) {
    const SolveResult a = Solve(name, g, ic, {}, 42);
    const SolveResult b = Solve(name, g, ic, {}, 42);
    EXPECT_EQ(a.forest, b.forest) << name;
    EXPECT_EQ(a.stats.rounds, b.stats.rounds) << name;
    EXPECT_EQ(a.stats.total_bits, b.stats.total_bits) << name;
  }
}

// --- the warm-start incumbent rule -------------------------------------------

// Terminals 0 and 1 share a direct edge of weight 5 and a path of three
// 2-edges through nodes 2 and 3. Kruskal keeps the path, so mst-prune
// returns it (weight 6), while exact takes the direct edge (weight 5).
Graph DetourGraph() {
  return MakeGraph(4, {{0, 1, 5}, {0, 2, 2}, {2, 3, 2}, {3, 1, 2}});
}

TEST(WarmStartBackstopTest, HeavierResultGivesWayToTheWarmStart) {
  const Graph g = DetourGraph();
  const IcInstance ic = MakeIcInstance(4, {{0, 1}, {1, 1}});
  const SolveResult exact = Solve("exact", g, ic);
  const SolveResult cold = Solve("mst-prune", g, ic);
  ASSERT_EQ(exact.weight, 5);
  ASSERT_EQ(cold.weight, 6);

  SolveOptions options;
  options.warm_start = exact.forest;
  const SolveResult warm = Solve("mst-prune", g, ic, options);
  EXPECT_EQ(warm.weight, exact.weight);
  EXPECT_EQ(warm.forest, exact.forest);
  EXPECT_TRUE(warm.validated);
  EXPECT_TRUE(warm.feasible);

  // The CR form and the batch engine's entry point share the rule.
  const SolveResult via_cr =
      Solve("mst-prune", g, MakeCrInstance(4, {{0, 1}}), options);
  EXPECT_EQ(via_cr.weight, exact.weight);
  EXPECT_EQ(via_cr.forest, exact.forest);
  EXPECT_TRUE(via_cr.feasible);
  SolveRequest request;
  request.solver = "mst-prune";
  request.graph = &g;
  request.ic = ic;
  request.options = options;
  const SolveResult batch = Solve(request, /*seed_override=*/9,
                                  /*net_threads_override=*/2);
  EXPECT_EQ(batch.weight, exact.weight);
  EXPECT_EQ(batch.forest, exact.forest);
  EXPECT_TRUE(batch.feasible);
}

TEST(WarmStartBackstopTest, InvalidWarmStartLeavesTheCoreResult) {
  const Graph g = DetourGraph();
  const IcInstance ic = MakeIcInstance(4, {{0, 1}, {1, 1}});
  const SolveResult cold = Solve("mst-prune", g, ic);
  const std::vector<std::vector<EdgeId>> invalid = {
      {1},      // lighter, but leaves terminal 1 unconnected
      {4},      // edge id past the graph
      {-1, 0},  // a negative id beside the optimal edge
  };
  for (std::size_t i = 0; i < invalid.size(); ++i) {
    SolveOptions options;
    options.warm_start = invalid[i];
    const SolveResult r = Solve("mst-prune", g, ic, options);
    EXPECT_EQ(r.weight, cold.weight) << i;
    EXPECT_EQ(r.forest, cold.forest) << i;
    EXPECT_TRUE(r.feasible) << i;
  }
}

// The satellite sweep: random grids and Erdős–Rényi graphs; every solver
// feasible, and the deterministic solver within (2+ε) of the dual bound.
TEST(SolverConsistencyTest, CrossSolverSweep) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    SplitMix64 grng(seed * 19 + 3);
    const Graph grid = MakeGrid(5, 5, 1, 9, grng);
    SplitMix64 erng(seed * 23 + 7);
    const Graph er = MakeConnectedRandom(24, 0.18, 1, 20, erng);
    for (const Graph* g : {&grid, &er}) {
      const int n = g->NumNodes();
      SplitMix64 trng(seed * 31 + 11);
      std::vector<std::pair<NodeId, Label>> assign;
      std::vector<char> used(static_cast<std::size_t>(n), 0);
      for (int c = 0; c < 3; ++c) {
        for (int j = 0; j < 2; ++j) {
          NodeId v = 0;
          do {
            v = static_cast<NodeId>(trng.NextBelow(
                static_cast<std::uint64_t>(n)));
          } while (used[static_cast<std::size_t>(v)]);
          used[static_cast<std::size_t>(v)] = 1;
          assign.push_back({v, static_cast<Label>(c + 1)});
        }
      }
      const IcInstance ic = MakeIcInstance(n, assign);

      for (const Real eps : {0.0L, 0.25L}) {
        SolveOptions opt;
        opt.epsilon = eps;
        const SolveResult gw = Solve("gw-moat", *g, ic, opt, seed + 1);
        ASSERT_GT(gw.dual_lower_bound, 0) << seed;
        const SolveResult det = Solve("dist-det", *g, ic, opt, seed + 1);
        // Theorem 4.1 / 4.2: W(F) < (2+ε) Σ act·µ — exact in fixed point.
        const auto bound = static_cast<Fixed>(
            (2.0L + eps) * static_cast<Real>(gw.dual_lower_bound) + 1.0L);
        EXPECT_LE(ToFixed(det.weight), bound)
            << "seed=" << seed << " eps=" << static_cast<double>(eps);
      }

      for (const auto name : kAllSolvers) {
        const SolveResult res = Solve(name, *g, ic, {}, seed + 1);
        EXPECT_TRUE(res.feasible) << name << " seed=" << seed;
        EXPECT_TRUE(g->IsForest(res.forest)) << name << " seed=" << seed;
        EXPECT_TRUE(IsFeasible(*g, ic, res.forest))
            << name << " seed=" << seed;
      }
    }
  }
}

// Approximation quality of the new sequential solvers against the exact
// optimum on instances inside the exact solver's limits (≤14 terminals).
// The bounds are deliberately generous — they catch gross regressions
// (a broken merge rule, a local search that accepts worsening moves), not
// the theoretical constants.
TEST(SolverQualityTest, SequentialSolversNearOptimum) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    SplitMix64 grng(seed * 41 + 13);
    const Graph g = MakeConnectedRandom(28, 0.2, 1, 25, grng);
    SplitMix64 trng(seed * 57 + 29);
    std::vector<std::pair<NodeId, Label>> assign;
    std::vector<char> used(28, 0);
    for (int c = 0; c < 4; ++c) {
      for (int j = 0; j < 2; ++j) {
        NodeId v = 0;
        do {
          v = static_cast<NodeId>(trng.NextBelow(28));
        } while (used[static_cast<std::size_t>(v)]);
        used[static_cast<std::size_t>(v)] = 1;
        assign.push_back({v, static_cast<Label>(c + 1)});
      }
    }
    const IcInstance ic = MakeIcInstance(28, assign);
    const Weight opt = Solve("exact", g, ic).weight;
    ASSERT_GT(opt, 0) << seed;

    const SolveResult greedy = Solve("greedy-merge", g, ic);
    EXPECT_TRUE(greedy.feasible) << seed;
    EXPECT_LE(greedy.weight, 3 * opt) << seed;

    const SolveResult local = Solve("local-search", g, ic);
    EXPECT_TRUE(local.feasible) << seed;
    EXPECT_LE(local.weight, 3 * opt) << seed;

    // Local search must never worsen a warm start below feasibility or
    // above its starting weight.
    SolveOptions warm;
    warm.warm_start = greedy.forest;
    const SolveResult refined = Solve("local-search", g, ic, warm);
    EXPECT_TRUE(refined.feasible) << seed;
    EXPECT_LE(refined.weight, greedy.weight) << seed;

    // mode=all portfolio: never worse than its best member.
    const SolveResult port = Solve(
        "portfolio(roster=gw-moat+mst-prune+greedy-merge+local-search)", g,
        ic);
    EXPECT_TRUE(port.feasible) << seed;
    const Weight best_member =
        std::min({Solve("gw-moat", g, ic).weight,
                  Solve("mst-prune", g, ic).weight, greedy.weight,
                  local.weight});
    EXPECT_LE(port.weight, best_member) << seed;
  }
}

}  // namespace
}  // namespace dsf
