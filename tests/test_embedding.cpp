// Tests for the LE-list / virtual-tree embedding substrate (Khan et al.,
// used by Section 5).
#include "dist/embedding.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "congest/protocols.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "graph/shortest_paths.hpp"

namespace dsf {
namespace {

TEST(RankTest, DeterministicAndDistinct) {
  const Rank a1 = RankOf(3, 42);
  const Rank a2 = RankOf(3, 42);
  EXPECT_EQ(a1, a2);
  const Rank b = RankOf(4, 42);
  EXPECT_NE(a1.key, b.key);
  const Rank c = RankOf(3, 43);
  EXPECT_NE(a1.key, c.key);
}

TEST(BetaTest, InRange) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto b = DeriveBetaScaled(seed);
    EXPECT_GE(b, kBetaScale);
    EXPECT_LT(b, 2 * kBetaScale);
  }
}

TEST(LevelsTest, CoverWeightedDiameter) {
  EXPECT_GE(NumLevels(1), 2);
  for (const Weight wd : {1, 5, 100, 4096, 1000000}) {
    const int levels = NumLevels(wd);
    // β·2^(levels-1) >= 2^(levels-1) >= wd must hold.
    EXPECT_GE(Weight{1} << (levels - 1), wd) << wd;
  }
}

TEST(LeListTest, ParetoInvariant) {
  LeList list;
  EXPECT_TRUE(list.Insert({10, 50, 0, -1}));
  EXPECT_TRUE(list.Insert({11, 80, 5, 0}));   // higher rank, farther: kept
  EXPECT_FALSE(list.Insert({12, 60, 7, 0}));  // dominated by (80, 5)
  EXPECT_TRUE(list.Insert({13, 99, 9, 1}));
  // Ranks strictly ascend with distance.
  const auto& e = list.Entries();
  ASSERT_EQ(e.size(), 3u);
  for (std::size_t i = 1; i < e.size(); ++i) {
    EXPECT_GT(e[i].rank_key, e[i - 1].rank_key);
    EXPECT_GT(e[i].dist, e[i - 1].dist);
  }
}

TEST(LeListTest, InsertionPrunesDominated) {
  LeList list;
  list.Insert({1, 10, 4, -1});
  list.Insert({2, 20, 8, 0});
  // A closer entry with even higher rank supersedes both.
  EXPECT_TRUE(list.Insert({3, 30, 2, 1}));
  ASSERT_EQ(list.Entries().size(), 1u);
  EXPECT_EQ(list.Entries()[0].node, 3);
}

TEST(LeListTest, AncestorLookup) {
  LeList list;
  list.Insert({1, 10, 0, -1});
  list.Insert({2, 20, 6, 0});
  list.Insert({3, 30, 12, 1});
  EXPECT_EQ(list.AncestorWithin(0)->node, 1);
  EXPECT_EQ(list.AncestorWithin(7)->node, 2);
  EXPECT_EQ(list.AncestorWithin(100)->node, 3);
}

// Distributed LE-list computation must match the centralized reference.
class LeProbeProgram : public TreeProgramBase {
 public:
  LeProbeProgram(NodeId id, std::uint64_t seed)
      : TreeProgramBase(id), seed_(seed) {}

  LeList result;

 protected:
  void OnTreeReady(NodeApi& api) override {
    module_.Configure(Id(), seed_, api.Degree());
    floor_ = api.Round();
  }
  void OnAppRound(NodeApi& api) override {
    for (const auto& d : api.Inbox()) {
      if (d.msg.channel == kChLe) module_.OnReceive(api, d);
    }
    module_.Tick(api);
    result = module_.List();
    if (IsRoot()) {
      const int d = api.Known().diameter_bound;
      if (api.Round() > floor_ + d + 3 &&
          api.Round() - GlobalLastActivity() > d + 3) {
        if (!finished_) {
          finished_ = true;
          Finish();
        }
      }
    }
  }

 private:
  std::uint64_t seed_;
  LeListModule module_;
  long floor_ = 0;
  bool finished_ = false;
};

TEST(LeModuleTest, MatchesCentralizedReference) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(18, 0.2, 1, 12, rng);
    const auto params = ComputeHopParameters(g);
    StaticKnowledge known;
    known.n = g.NumNodes();
    known.diameter_bound = params.unweighted_diameter;
    Network net(g, known, seed);
    net.Start([&](NodeId v) {
      return std::make_unique<LeProbeProgram>(v, seed);
    });
    const auto stats = net.Run(100000);
    ASSERT_FALSE(stats.hit_round_limit);

    const auto ref = ComputeEmbeddingReference(g, seed);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      const auto& got =
          dynamic_cast<LeProbeProgram&>(net.ProgramAt(v)).result.Entries();
      const auto& want = ref.le_lists[static_cast<std::size_t>(v)];
      ASSERT_EQ(got.size(), want.size()) << "node " << v << " seed " << seed;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].node, want[i].node) << v << "/" << i;
        EXPECT_EQ(got[i].dist, want[i].dist) << v << "/" << i;
      }
    }
  }
}

TEST(LeModuleTest, ListSizeLogarithmic) {
  // O(log n) expected size — allow generous slack, catch pathologies.
  SplitMix64 rng(7);
  const Graph g = MakeConnectedRandom(64, 0.08, 1, 50, rng);
  const auto ref = ComputeEmbeddingReference(g, 7);
  std::size_t max_len = 0;
  for (const auto& list : ref.le_lists) max_len = std::max(max_len, list.size());
  EXPECT_LE(max_len, 6u * 8u);  // ~ c * log2(64) with c generous
}

TEST(EmbeddingReferenceTest, AncestorsAreMaxRankInBall) {
  SplitMix64 rng(3);
  const Graph g = MakeConnectedRandom(14, 0.3, 1, 9, rng);
  const auto ref = ComputeEmbeddingReference(g, 3);
  std::vector<std::vector<Weight>> dist;
  for (NodeId v = 0; v < 14; ++v) dist.push_back(Dijkstra(g, v).dist);
  for (NodeId v = 0; v < 14; ++v) {
    for (int i = 0; i < ref.levels; ++i) {
      const Weight radius =
          static_cast<Weight>((ref.beta_scaled << i) / kBetaScale);
      // Brute-force the max-rank node within the ball.
      Rank best{0, kNoNode};
      for (NodeId w = 0; w < 14; ++w) {
        if (dist[static_cast<std::size_t>(v)][static_cast<std::size_t>(w)] >
            radius) {
          continue;
        }
        const Rank rw = RankOf(w, 3);
        if (best.node == kNoNode || best < rw) best = rw;
      }
      EXPECT_EQ(
          ref.ancestors[static_cast<std::size_t>(v)][static_cast<std::size_t>(i)],
          best.node)
          << "v=" << v << " level=" << i;
    }
  }
}

TEST(EmbeddingReferenceTest, MeanStretchLogarithmic) {
  // Section 5's substrate: the virtual tree's expected distortion is
  // O(log n). Tree distance of u, v is 2 * sum_{i <= l} beta * 2^i, with l
  // the first level where their ancestors agree. The mean stretch over node
  // pairs, averaged over 8 seeds, stays within 2 log2 n on a sparse random
  // graph and on a grid.
  constexpr int kSeeds = 8;
  SplitMix64 er_rng(48);
  SplitMix64 grid_rng(1);
  const Graph graphs[] = {MakeConnectedRandom(48, 8.0 / 48, 1, 32, er_rng),
                          MakeGrid(8, 8, 1, 4, grid_rng)};
  for (const Graph& g : graphs) {
    const int n = g.NumNodes();
    std::vector<std::vector<Weight>> dist;
    for (NodeId v = 0; v < n; ++v) dist.push_back(Dijkstra(g, v).dist);
    double mean_sum = 0.0;
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      const auto emb = ComputeEmbeddingReference(g, seed);
      double stretch_sum = 0.0;
      long pairs = 0;
      for (NodeId u = 0; u < n; ++u) {
        const auto& up = emb.ancestors[static_cast<std::size_t>(u)];
        for (NodeId v = u + 1; v < n; ++v) {
          const auto& vp = emb.ancestors[static_cast<std::size_t>(v)];
          int level = 0;
          while (level < emb.levels - 1 &&
                 up[static_cast<std::size_t>(level)] !=
                     vp[static_cast<std::size_t>(level)]) {
            ++level;
          }
          Weight tree_dist = 0;
          for (int i = 0; i <= level; ++i) {
            tree_dist +=
                2 * static_cast<Weight>((emb.beta_scaled << i) / kBetaScale);
          }
          stretch_sum += static_cast<double>(tree_dist) /
                         static_cast<double>(
                             dist[static_cast<std::size_t>(u)]
                                 [static_cast<std::size_t>(v)]);
          ++pairs;
        }
      }
      mean_sum += stretch_sum / static_cast<double>(pairs);
    }
    EXPECT_LE(mean_sum / kSeeds, 2.0 * std::log2(static_cast<double>(n)))
        << "n " << n;
  }
}

TEST(EmbeddingReferenceTest, TopAncestorIsGlobalMaxRank) {
  SplitMix64 rng(9);
  const Graph g = MakeConnectedRandom(20, 0.2, 1, 7, rng);
  const auto ref = ComputeEmbeddingReference(g, 9);
  Rank best{0, kNoNode};
  for (NodeId v = 0; v < 20; ++v) {
    const Rank r = RankOf(v, 9);
    if (best.node == kNoNode || best < r) best = r;
  }
  for (NodeId v = 0; v < 20; ++v) {
    EXPECT_EQ(ref.ancestors[static_cast<std::size_t>(v)].back(), best.node);
  }
}

}  // namespace
}  // namespace dsf
