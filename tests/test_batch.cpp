// BatchEngine: bit-identical results across thread counts, master-seed
// discipline (request i == Solve with DeriveSeed(master, i)), and aggregate
// statistics.
#include "solve/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.hpp"
#include "graph/generators.hpp"

namespace dsf {
namespace {

// A heterogeneous batch on one shared topology: every family, two
// instances, mixed input forms.
std::vector<SolveRequest> MakeBatch(const Graph& g) {
  const IcInstance ic =
      MakeIcInstance(g.NumNodes(), {{0, 1}, {15, 1}, {3, 2}, {12, 2}});
  const CrInstance cr = MakeCrInstance(g.NumNodes(), {{1, 14}, {2, 8}});
  std::vector<SolveRequest> batch;
  for (const auto name : SolverRegistry::Names()) {
    SolveRequest req;
    req.solver = std::string(name);
    req.graph = &g;
    req.ic = ic;
    batch.push_back(req);
    req.ic = {};
    req.cr = cr;
    req.use_cr = true;
    batch.push_back(std::move(req));
  }
  return batch;
}

void ExpectSameResults(const std::vector<SolveResult>& a,
                       const std::vector<SolveResult>& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].solver, b[i].solver) << what << " i=" << i;
    EXPECT_EQ(a[i].forest, b[i].forest) << what << " i=" << i;
    EXPECT_EQ(a[i].weight, b[i].weight) << what << " i=" << i;
    EXPECT_EQ(a[i].feasible, b[i].feasible) << what << " i=" << i;
    EXPECT_EQ(a[i].stats.rounds, b[i].stats.rounds) << what << " i=" << i;
    EXPECT_EQ(a[i].stats.messages, b[i].stats.messages) << what << " i=" << i;
    EXPECT_EQ(a[i].stats.total_bits, b[i].stats.total_bits)
        << what << " i=" << i;
    EXPECT_EQ(a[i].stats.charged_rounds, b[i].stats.charged_rounds)
        << what << " i=" << i;
    EXPECT_EQ(a[i].dual_lower_bound, b[i].dual_lower_bound)
        << what << " i=" << i;
  }
}

TEST(BatchEngineTest, BitIdenticalAcrossThreadCounts) {
  SplitMix64 rng(7);
  const Graph g = MakeGrid(4, 4, 1, 5, rng);
  const auto batch = MakeBatch(g);

  std::vector<SolveResult> baseline;
  for (const int threads : {1, 2, 4, 8}) {
    BatchOptions opt;
    opt.threads = threads;
    opt.master_seed = 99;
    BatchEngine engine(opt);
    auto results = engine.Run(batch);
    EXPECT_EQ(engine.LastStats().requests, static_cast<int>(batch.size()));
    EXPECT_EQ(engine.LastStats().infeasible, 0) << threads;
    if (threads == 1) {
      baseline = std::move(results);
    } else {
      ExpectSameResults(baseline, results, "threads");
    }
  }
  // The randomized wrappers charge their substituted stages from s and D
  // (m·(s + D + 2), s + D + 2), so the comparison covers nonzero charges.
  EXPECT_TRUE(std::any_of(
      baseline.begin(), baseline.end(),
      [](const SolveResult& r) { return r.stats.charged_rounds > 0; }));
}

TEST(BatchEngineTest, MasterSeedMatchesDirectPipelineCalls) {
  SplitMix64 rng(7);
  const Graph g = MakeGrid(4, 4, 1, 5, rng);
  const auto batch = MakeBatch(g);
  constexpr std::uint64_t kMaster = 1234;

  BatchOptions opt;
  opt.threads = 2;
  opt.master_seed = kMaster;
  BatchEngine engine(opt);
  const auto results = engine.Run(batch);

  std::vector<SolveResult> direct;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SolveRequest req = batch[i];
    req.seed = DeriveSeed(kMaster, i);
    req.options.net.threads = 1;
    direct.push_back(Solve(req));
  }
  ExpectSameResults(direct, results, "master-seed");
}

TEST(BatchEngineTest, ZeroMasterSeedKeepsRequestSeeds) {
  SplitMix64 rng(7);
  const Graph g = MakeGrid(4, 4, 1, 5, rng);
  SolveRequest req;
  req.solver = "dist-rand";
  req.graph = &g;
  req.ic = MakeIcInstance(16, {{0, 1}, {15, 1}, {3, 2}, {12, 2}});
  req.seed = 77;
  BatchEngine engine;  // threads = 1, master_seed = 0
  const auto results = engine.Run(std::vector<SolveRequest>{req});
  const SolveResult direct = Solve("dist-rand", g, req.ic, {}, 77);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].forest, direct.forest);
  EXPECT_EQ(results[0].stats.rounds, direct.stats.rounds);
}

TEST(BatchEngineTest, StatsAggregate) {
  SplitMix64 rng(7);
  const Graph g = MakeGrid(4, 4, 1, 5, rng);
  const auto batch = MakeBatch(g);
  BatchOptions opt;
  opt.master_seed = 5;
  BatchEngine engine(opt);
  const auto results = engine.Run(batch);
  const BatchStats& stats = engine.LastStats();

  EXPECT_EQ(stats.requests, static_cast<int>(batch.size()));
  EXPECT_EQ(stats.infeasible, 0);
  EXPECT_GT(stats.wall_ms, 0.0);
  EXPECT_GT(stats.instances_per_sec, 0.0);
  EXPECT_LE(stats.p50_ms, stats.p95_ms);
  EXPECT_LE(stats.p95_ms, stats.max_ms);
  Weight total = 0;
  long rounds = 0;
  for (const auto& r : results) {
    total += r.weight;
    rounds += r.stats.rounds;
  }
  EXPECT_EQ(stats.total_weight, total);
  EXPECT_EQ(stats.total_rounds, rounds);
}

TEST(BatchEngineTest, EmptyBatch) {
  BatchEngine engine;
  const auto results = engine.Run(std::vector<SolveRequest>{});
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(engine.LastStats().requests, 0);
  EXPECT_EQ(engine.LastStats().p95_ms, 0.0);
}

}  // namespace
}  // namespace dsf
