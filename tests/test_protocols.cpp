// Unit tests for the reusable CONGEST protocol blocks (protocols.hpp) and
// message encoding.
#include "congest/protocols.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hpp"
#include "congest_reference.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"

namespace dsf {
namespace {

TEST(MessageTest, BitSizeGrowsWithMagnitude) {
  const Message small{kChApp, {1}};
  const Message large{kChApp, {1'000'000'000}};
  EXPECT_LT(small.BitSize(), large.BitSize());
  const Message neg{kChApp, {-5}};
  EXPECT_GT(neg.BitSize(), 4u);  // zigzag handles negatives
}

TEST(MessageTest, BitSizeCountsAllFields) {
  const Message one{kChApp, {7}};
  const Message three{kChApp, {7, 7, 7}};
  EXPECT_GT(three.BitSize(), 2 * one.BitSize() - 8);
}

TEST(MessageTest, EmptyMessageHasHeaderOnly) {
  Message m;
  m.fields.clear();
  EXPECT_EQ(m.BitSize(), 4u);
}

// Collect pipeline semantics, driven directly (no network).
TEST(CollectPipelineTest, CompleteRequiresChildrenAndOwnDone) {
  CollectPipeline p;
  p.Configure(kChApp, 2);
  EXPECT_FALSE(p.Complete());
  p.MarkOwnDone();
  EXPECT_FALSE(p.Complete());  // children pending
  Message done{kChApp, {CollectPipeline::kDoneSentinel}};
  p.OnReceive(done, false, nullptr);
  p.OnReceive(done, false, nullptr);
  EXPECT_TRUE(p.Complete());
}

TEST(CollectPipelineTest, PayloadsCollectedAtRoot) {
  CollectPipeline p;
  p.Configure(kChApp, 0);
  std::vector<std::vector<std::int64_t>> out;
  Message payload{kChApp, {42, 7}};
  p.OnReceive(payload, true, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (std::vector<std::int64_t>{42, 7}));
}

// The slot-keyed edge queues against the deque-and-set reference
// (tests/congest_reference.hpp): seeded random enqueues, with and without an
// excluded edge, and pops with budgets 1-3, either from one edge or swept
// over every edge as the flooding protocols do. Degrees sit on both sides of
// the 64-edge word boundaries of the membership bits, over 4 and over 500
// distinct keys. Every pop must return the same keys in the same order,
// Empty() must hold exactly when the reference pops nothing, and
// HasPending() must agree after every operation.
TEST(KeyedEdgeQueuesTest, MatchesReferenceOnRandomOperations) {
  for (const int degree : {1, 63, 64, 65, 130}) {
    for (const int num_keys : {4, 500}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(testing::Message() << "degree=" << degree
                                        << " keys=" << num_keys
                                        << " seed=" << seed);
        SplitMix64 rng(DeriveSeed(seed, static_cast<std::uint64_t>(
                                            degree * 1000 + num_keys)));
        std::vector<NodeId> keys;
        for (int i = 0; i < num_keys; ++i) {
          // Distinct, scattered ids: the intern table probes past collisions.
          keys.push_back(static_cast<NodeId>(
              (rng.NextBelow(1u << 20) << 10) | static_cast<std::uint64_t>(i)));
        }
        KeyedEdgeQueues queues;
        reference::KeyedEdgeQueues ref;
        queues.Configure(degree);
        ref.Configure(degree);
        std::vector<int> slots;
        std::vector<NodeId> got;
        std::vector<NodeId> want;
        const auto pop = [&](int local, int budget) {
          const bool empty = queues.Empty(local);
          queues.PopInto(local, budget, slots);
          ref.PopInto(local, budget, want);
          got.clear();
          for (const int slot : slots) got.push_back(queues.KeyOf(slot));
          ASSERT_EQ(got, want) << "edge " << local;
          ASSERT_EQ(empty, want.empty()) << "edge " << local;
        };
        const auto deg = static_cast<std::uint64_t>(degree);
        for (int op = 0; op < 3000; ++op) {
          const std::uint64_t kind = rng.NextBelow(10);
          if (kind < 4) {
            const NodeId key = keys[rng.NextBelow(keys.size())];
            const int except =
                rng.NextBelow(3) == 0 ? -1
                                      : static_cast<int>(rng.NextBelow(deg));
            const int known = queues.Find(key);
            const int slot = queues.Intern(key);
            ASSERT_TRUE(known == -1 || known == slot);
            ASSERT_EQ(queues.KeyOf(slot), key);
            queues.EnqueueAll(slot, except);
            ref.EnqueueAll(key, except);
          } else if (kind < 7) {
            pop(static_cast<int>(rng.NextBelow(deg)),
                1 + static_cast<int>(rng.NextBelow(3)));
          } else {
            const int budget = 1 + static_cast<int>(rng.NextBelow(3));
            for (int e = 0; e < degree; ++e) pop(e, budget);
          }
          ASSERT_EQ(queues.HasPending(), ref.HasPending()) << "op " << op;
        }
        while (ref.HasPending()) {
          for (int e = 0; e < degree; ++e) pop(e, 3);
        }
        EXPECT_FALSE(queues.HasPending());
      }
    }
  }
}

// A program exercising the collect pipeline on a real network: every node
// seeds one item (its id); the root must receive all of them.
class CollectAllProgram : public TreeProgramBase {
 public:
  explicit CollectAllProgram(NodeId id) : TreeProgramBase(id) {}
  std::vector<std::vector<std::int64_t>> collected;

 protected:
  void OnTreeReady(NodeApi& api) override {
    (void)api;
    pipe_.Configure(kChApp, static_cast<int>(ChildLocals().size()));
    pipe_.Seed({Id()});
    pipe_.MarkOwnDone();
  }
  void OnAppRound(NodeApi& api) override {
    if (!TreeReady()) return;
    for (const auto& d : api.Inbox()) {
      if (d.msg.channel == kChApp) {
        pipe_.OnReceive(d.msg, IsRoot(), &collected);
      }
    }
    pipe_.Tick(api, ParentLocal(), IsRoot() ? &collected : nullptr);
    if (IsRoot() && pipe_.Complete() && !finished_) {
      finished_ = true;
      Finish();
    }
  }

 private:
  CollectPipeline pipe_;
  bool finished_ = false;
};

TEST(CollectPipelineTest, GathersEveryNodeIdOverNetwork) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(17, 0.2, 1, 5, rng);
    const auto params = ComputeHopParameters(g);
    StaticKnowledge known;
    known.n = g.NumNodes();
    known.diameter_bound = params.unweighted_diameter;
    Network net(g, known, seed);
    net.Start([](NodeId v) { return std::make_unique<CollectAllProgram>(v); });
    const auto stats = net.Run(5000);
    ASSERT_FALSE(stats.hit_round_limit);
    auto& root = dynamic_cast<CollectAllProgram&>(net.ProgramAt(16));
    std::vector<std::int64_t> ids;
    for (const auto& item : root.collected) ids.push_back(item[0]);
    std::sort(ids.begin(), ids.end());
    std::vector<std::int64_t> expect;
    for (int i = 0; i < 17; ++i) expect.push_back(i);
    EXPECT_EQ(ids, expect) << seed;
    // Pipelining: O(n + D) rounds, not O(n * D).
    EXPECT_LE(stats.rounds,
              4 * (17 + params.unweighted_diameter) + 40);
  }
}

// Quiescence detection: the root's GlobalLastActivity converges to the true
// last round of app traffic.
class BurstProgram : public TreeProgramBase {
 public:
  explicit BurstProgram(NodeId id) : TreeProgramBase(id) {}
  long observed_global_last = -2;

 protected:
  void OnAppRound(NodeApi& api) override {
    if (!TreeReady()) return;
    // Node 0 sends a burst of app messages for 3 rounds after tree-ready.
    if (Id() == 0 && bursts_ < 3) {
      ++bursts_;
      api.Send(0, Message{kChApp, {1}});
      last_burst_round_ = api.Round();
    }
    if (IsRoot()) {
      observed_global_last = GlobalLastActivity();
      const int d = api.Known().diameter_bound;
      if (api.Round() > 6 * (d + 3) && !finished_) {
        finished_ = true;
        Finish();
      }
    }
  }

 private:
  int bursts_ = 0;
  long last_burst_round_ = -1;
  bool finished_ = false;
};

TEST(QuiescenceTest, RootLearnsLastActivity) {
  const Graph g = MakePath(9);
  StaticKnowledge known;
  known.n = 9;
  known.diameter_bound = 8;
  Network net(g, known, 1);
  net.Start([](NodeId v) { return std::make_unique<BurstProgram>(v); });
  const auto stats = net.Run(5000);
  ASSERT_FALSE(stats.hit_round_limit);
  auto& root = dynamic_cast<BurstProgram&>(net.ProgramAt(8));
  // Bursts happen in rounds ~D+2..D+4 at node 0 and are received a round
  // later at node 1; the root must have learned a value in that window.
  EXPECT_GE(root.observed_global_last, 8 + 2);
  EXPECT_LE(root.observed_global_last, 8 + 7);
}

// Single-node graph: the node must root itself, become tree-ready without
// any messages, and terminate.
TEST(TreeProgramTest, SingleNodeGraph) {
  Graph g(1);
  g.Finalize();
  StaticKnowledge known;
  known.n = 1;
  known.diameter_bound = 0;
  Network net(g, known, 1);
  net.Start([](NodeId v) { return std::make_unique<BfsProbeProgram>(v); });
  const auto stats = net.Run(100);
  ASSERT_FALSE(stats.hit_round_limit);
  auto& p = dynamic_cast<BfsProbeProgram&>(net.ProgramAt(0));
  EXPECT_EQ(p.observed_depth, 0);
  EXPECT_EQ(p.observed_parent, 0);
  EXPECT_TRUE(p.IsRoot());
  EXPECT_EQ(stats.messages, 0);  // nothing to talk to
}

// Root-only delivery: on a single-node network the root's control broadcasts
// must still arrive at itself, in FIFO order, one per round.
TEST(CtrlBroadcastTest, RootOnlyOrdering) {
  class SelfOrderProgram : public TreeProgramBase {
   public:
    explicit SelfOrderProgram(NodeId id) : TreeProgramBase(id) {}
    std::vector<std::int64_t> received;

   protected:
    void OnTreeReady(NodeApi& api) override {
      (void)api;
      for (std::int64_t i = 0; i < 5; ++i) {
        BroadcastCtrl(Message{kChCtrl, {200 + i}});
      }
      Finish();
    }
    void OnCtrl(NodeApi& api, const Message& msg) override {
      (void)api;
      if (msg.fields[0] != kCtrlFinish) received.push_back(msg.fields[0]);
    }
  };
  Graph g(1);
  g.Finalize();
  StaticKnowledge known;
  known.n = 1;
  known.diameter_bound = 0;
  Network net(g, known, 1);
  net.Start([](NodeId v) { return std::make_unique<SelfOrderProgram>(v); });
  const auto stats = net.Run(100);
  ASSERT_FALSE(stats.hit_round_limit);
  const auto& p = dynamic_cast<SelfOrderProgram&>(net.ProgramAt(0));
  EXPECT_EQ(p.received,
            (std::vector<std::int64_t>{200, 201, 202, 203, 204}));
}

// Quiescence detection when no application traffic ever occurs: the root
// must observe GlobalLastActivity() == -1, GloballyQuietSince(-1) must hold
// shortly after the tree is ready, and the run must terminate promptly.
TEST(QuiescenceTest, NoAppTrafficEver) {
  class SilentProgram : public TreeProgramBase {
   public:
    explicit SilentProgram(NodeId id) : TreeProgramBase(id) {}
    long observed_last = -2;
    long finish_round = -1;

   protected:
    void OnAppRound(NodeApi& api) override {
      if (!IsRoot() || finished_) return;
      observed_last = GlobalLastActivity();
      if (GloballyQuietSince(api, -1)) {
        finished_ = true;
        finish_round = api.Round();
        Finish();
      }
    }

   private:
    bool finished_ = false;
  };
  const Graph g = MakePath(7);
  StaticKnowledge known;
  known.n = 7;
  known.diameter_bound = 6;
  Network net(g, known, 1);
  net.Start([](NodeId v) { return std::make_unique<SilentProgram>(v); });
  const auto stats = net.Run(500);
  ASSERT_FALSE(stats.hit_round_limit);
  const auto& root = dynamic_cast<SilentProgram&>(net.ProgramAt(6));
  EXPECT_EQ(root.observed_last, -1);  // detector saw no app traffic
  // Quiet is declared right after the D + 2 slack expires, and the FINISH
  // broadcast drains within another tree-depth worth of rounds.
  EXPECT_GE(root.finish_round, known.diameter_bound + 2);
  EXPECT_LE(stats.rounds, 4L * known.diameter_bound + 12);
}

// A pipeline with no seeds anywhere must still complete (DONE markers are
// the only traffic) and deliver zero items at the root.
TEST(CollectPipelineTest, NoItemsEverSeeded) {
  class EmptyCollectProgram : public TreeProgramBase {
   public:
    explicit EmptyCollectProgram(NodeId id) : TreeProgramBase(id) {}
    std::vector<std::vector<std::int64_t>> collected;

   protected:
    void OnTreeReady(NodeApi& api) override {
      (void)api;
      pipe_.Configure(kChApp, static_cast<int>(ChildLocals().size()));
      pipe_.MarkOwnDone();
    }
    void OnAppRound(NodeApi& api) override {
      for (const auto& d : api.Inbox()) {
        if (d.msg.channel == kChApp) {
          pipe_.OnReceive(d.msg, IsRoot(), &collected);
        }
      }
      pipe_.Tick(api, ParentLocal(), IsRoot() ? &collected : nullptr);
      if (IsRoot() && pipe_.Complete() && !finished_) {
        finished_ = true;
        Finish();
      }
    }

   private:
    CollectPipeline pipe_;
    bool finished_ = false;
  };
  const Graph g = MakeStar(8);
  StaticKnowledge known;
  known.n = 8;
  known.diameter_bound = 2;
  Network net(g, known, 1);
  net.Start([](NodeId v) { return std::make_unique<EmptyCollectProgram>(v); });
  const auto stats = net.Run(200);
  ASSERT_FALSE(stats.hit_round_limit);
  EXPECT_TRUE(
      dynamic_cast<EmptyCollectProgram&>(net.ProgramAt(7)).collected.empty());
}

TEST(CtrlBroadcastTest, OrderPreservedAndPipelined) {
  class OrderProgram : public TreeProgramBase {
   public:
    explicit OrderProgram(NodeId id) : TreeProgramBase(id) {}
    std::vector<std::int64_t> received;

   protected:
    void OnTreeReady(NodeApi& api) override {
      (void)api;
      if (IsRoot()) {
        for (std::int64_t i = 0; i < 20; ++i) {
          BroadcastCtrl(Message{kChCtrl, {100 + i}});
        }
        Finish();
      }
    }
    void OnCtrl(NodeApi& api, const Message& msg) override {
      (void)api;
      if (msg.fields[0] != kCtrlFinish) received.push_back(msg.fields[0]);
    }
  };
  const Graph g = MakePath(12);
  StaticKnowledge known;
  known.n = 12;
  known.diameter_bound = 11;
  Network net(g, known, 1);
  net.Start([](NodeId v) { return std::make_unique<OrderProgram>(v); });
  const auto stats = net.Run(5000);
  ASSERT_FALSE(stats.hit_round_limit);
  for (NodeId v = 0; v < 12; ++v) {
    const auto& p = dynamic_cast<OrderProgram&>(net.ProgramAt(v));
    ASSERT_EQ(p.received.size(), 20u) << "node " << v;
    for (std::int64_t i = 0; i < 20; ++i) {
      EXPECT_EQ(p.received[static_cast<std::size_t>(i)], 100 + i);
    }
  }
  // Pipelined: ~#items + 2D rounds, not #items * D.
  EXPECT_LE(stats.rounds, 20 + 4 * 11 + 20);
}

}  // namespace
}  // namespace dsf
