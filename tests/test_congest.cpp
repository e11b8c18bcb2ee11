#include "congest/network.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "congest/protocols.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "shortest_path_reference.hpp"

namespace dsf {
namespace {

StaticKnowledge KnownFor(const Graph& g) {
  const auto p = ComputeHopParameters(g);
  StaticKnowledge k;
  k.n = g.NumNodes();
  k.diameter_bound = p.unweighted_diameter;
  return k;
}

// A trivial program: every node sends its id to all neighbors in round 0 and
// records what it hears.
class HelloProgram : public NodeProgram {
 public:
  explicit HelloProgram(NodeId id) : id_(id) {}

  void OnRound(NodeApi& api) override {
    if (api.Round() == 0) {
      for (int i = 0; i < api.Degree(); ++i) {
        api.Send(i, Message{kChApp, {id_}});
      }
      return;
    }
    for (const auto& d : api.Inbox()) {
      heard.push_back(d.msg.fields[0]);
      EXPECT_EQ(d.from_node, static_cast<NodeId>(d.msg.fields[0]));
    }
    done_ = true;
  }

  [[nodiscard]] bool Done() const override { return done_; }

  std::vector<std::int64_t> heard;

 private:
  NodeId id_;
  bool done_ = false;
};

TEST(NetworkTest, MessagesDeliveredNextRound) {
  const Graph g = MakePath(3);
  Network net(g, KnownFor(g), 1);
  net.Start([](NodeId v) { return std::make_unique<HelloProgram>(v); });
  const auto stats = net.Run(10);
  EXPECT_FALSE(stats.hit_round_limit);
  auto& p1 = dynamic_cast<HelloProgram&>(net.ProgramAt(1));
  ASSERT_EQ(p1.heard.size(), 2u);
  EXPECT_EQ(stats.messages, 4);  // 1+2+1 directed sends
}

TEST(NetworkTest, StatsCountBits) {
  const Graph g = MakePath(2);
  Network net(g, KnownFor(g), 1);
  net.Start([](NodeId v) { return std::make_unique<HelloProgram>(v); });
  const auto stats = net.Run(10);
  EXPECT_GT(stats.total_bits, 0);
  EXPECT_GT(stats.max_bits_per_edge_round, 0);
  EXPECT_LE(stats.max_bits_per_edge_round, net.Known().bandwidth_bits);
}

TEST(NetworkTest, CutMetering) {
  const Graph g = MakePath(4);  // edges 0:(0-1) 1:(1-2) 2:(2-3)
  Network net(g, KnownFor(g), 1);
  const std::vector<EdgeId> cut{1};
  net.RegisterCut(cut);
  net.Start([](NodeId v) { return std::make_unique<HelloProgram>(v); });
  const auto stats = net.Run(10);
  EXPECT_EQ(stats.cut_messages, 2);  // 1->2 and 2->1
  EXPECT_GT(stats.cut_bits, 0);
  EXPECT_LT(stats.cut_bits, stats.total_bits);
}

TEST(NetworkTest, RoundLimitFlag) {
  // A program that never finishes.
  class Forever : public NodeProgram {
   public:
    void OnRound(NodeApi&) override {}
    [[nodiscard]] bool Done() const override { return false; }
  };
  const Graph g = MakePath(2);
  Network net(g, KnownFor(g), 1);
  net.Start([](NodeId) { return std::make_unique<Forever>(); });
  const auto stats = net.Run(25);
  EXPECT_TRUE(stats.hit_round_limit);
  EXPECT_EQ(stats.rounds, 25);
}

TEST(NetworkTest, MarkedEdgesCollected) {
  class Marker : public NodeProgram {
   public:
    explicit Marker(NodeId id) : id_(id) {}
    void OnRound(NodeApi& api) override {
      if (id_ == 0 && api.Round() == 0) api.MarkEdge(0);
      done_ = true;
    }
    [[nodiscard]] bool Done() const override { return done_; }

   private:
    NodeId id_;
    bool done_ = false;
  };
  const Graph g = MakePath(3);
  Network net(g, KnownFor(g), 1);
  net.Start([](NodeId v) { return std::make_unique<Marker>(v); });
  net.Run(5);
  const auto marked = net.MarkedEdges();
  ASSERT_EQ(marked.size(), 1u);
  EXPECT_EQ(marked[0], 0);
}

TEST(NetworkTest, PerNodeRngIsDeterministicAndDistinct) {
  const Graph g = MakePath(3);
  class RngProbe : public NodeProgram {
   public:
    void OnRound(NodeApi& api) override {
      if (api.Round() == 0) value = api.Rng().Next();
      done_ = true;
    }
    [[nodiscard]] bool Done() const override { return done_; }
    std::uint64_t value = 0;

   private:
    bool done_ = false;
  };
  Network a(g, KnownFor(g), 99);
  a.Start([](NodeId) { return std::make_unique<RngProbe>(); });
  a.Run(3);
  Network b(g, KnownFor(g), 99);
  b.Start([](NodeId) { return std::make_unique<RngProbe>(); });
  b.Run(3);
  for (NodeId v = 0; v < 3; ++v) {
    const auto va = dynamic_cast<RngProbe&>(a.ProgramAt(v)).value;
    const auto vb = dynamic_cast<RngProbe&>(b.ProgramAt(v)).value;
    EXPECT_EQ(va, vb);
  }
  EXPECT_NE(dynamic_cast<RngProbe&>(a.ProgramAt(0)).value,
            dynamic_cast<RngProbe&>(a.ProgramAt(1)).value);
}

// --- FieldList payload edge cases through a delivery round-trip ---
// The message arena stores payloads inline (SoA header + FieldList); these
// pin that boundary-size, empty, and max-width payloads survive the
// send → arena → inbox path byte for byte.

// Echo rig: node 0 sends a scripted list of messages to node 1 in round 0;
// node 1 records exactly what arrives.
class PayloadSender : public NodeProgram {
 public:
  explicit PayloadSender(std::vector<Message> script)
      : script_(std::move(script)) {}
  void OnRound(NodeApi& api) override {
    if (api.Round() == 0) {
      for (auto& m : script_) api.Send(0, m);
    }
    done_ = true;
  }
  [[nodiscard]] bool Done() const override { return done_; }

 private:
  std::vector<Message> script_;
  bool done_ = false;
};

class PayloadReceiver : public NodeProgram {
 public:
  void OnRound(NodeApi& api) override {
    for (const auto& d : api.Inbox()) {
      received.push_back(d.msg);
      from_locals.push_back(d.from_local);
    }
    if (api.Round() >= 1) done_ = true;
  }
  [[nodiscard]] bool Done() const override { return done_; }
  std::vector<Message> received;
  std::vector<int> from_locals;

 private:
  bool done_ = false;
};

std::vector<Message> RoundTrip(const std::vector<Message>& script) {
  const Graph g = MakePath(2);
  StaticKnowledge k;
  k.n = 2;
  k.diameter_bound = 1;
  k.bandwidth_bits = 1 << 14;  // roomy: these tests probe width, not budget
  Network net(g, k, 1);
  net.Start([&](NodeId v) -> std::unique_ptr<NodeProgram> {
    if (v == 0) return std::make_unique<PayloadSender>(script);
    return std::make_unique<PayloadReceiver>();
  });
  net.Run(5);
  auto& rx = dynamic_cast<PayloadReceiver&>(net.ProgramAt(1));
  for (const int fl : rx.from_locals) EXPECT_EQ(fl, 0);
  return rx.received;
}

TEST(FieldListRoundTripTest, CapacityBoundaryPayloadSurvives) {
  Message full{kChApp, {1, -2, 3, -4, 5, -6, 7, -8}};
  ASSERT_EQ(full.fields.size(), FieldList::kMaxFields);
  Message seven{kChBellman, {9, 8, 7, 6, 5, 4, 3}};
  const auto got = RoundTrip({full, seven});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].channel, kChApp);
  EXPECT_EQ(got[0].fields, full.fields);
  EXPECT_EQ(got[1].channel, kChBellman);
  EXPECT_EQ(got[1].fields, seven.fields);
  EXPECT_EQ(got[0].BitSize(), full.BitSize());
}

TEST(FieldListRoundTripTest, EmptyMessageSurvives) {
  Message empty{kChQuiesce, {}};
  const auto got = RoundTrip({empty});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].channel, kChQuiesce);
  EXPECT_TRUE(got[0].fields.empty());
  EXPECT_EQ(got[0].fields.size(), 0u);
  EXPECT_EQ(got[0].BitSize(), 4u);  // channel tag only
}

TEST(FieldListRoundTripTest, MaxWidthFieldsSurviveByteForByte) {
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  Message extreme{kChExchange, {lo, hi, lo + 1, hi - 1, 0, -1, 1, lo}};
  const auto got = RoundTrip({extreme});
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].fields.size(), FieldList::kMaxFields);
  for (std::size_t i = 0; i < FieldList::kMaxFields; ++i) {
    EXPECT_EQ(got[0].fields[i], extreme.fields[i]) << "field " << i;
  }
  // Byte-for-byte: the zigzag width estimate agrees, so no bit was bent.
  EXPECT_EQ(got[0].BitSize(), extreme.BitSize());
}

TEST(FieldListRoundTripTest, MixedScriptKeepsOrderAndValues) {
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  std::vector<Message> script;
  script.push_back(Message{kChApp, {}});
  script.push_back(Message{kChApp, {42}});
  script.push_back(Message{kChToken, {-hi, hi, 0}});
  script.push_back(Message{kChFilter, {1, 2, 3, 4, 5, 6, 7, 8}});
  const auto got = RoundTrip(script);
  ASSERT_EQ(got.size(), script.size());
  for (std::size_t i = 0; i < script.size(); ++i) {
    EXPECT_EQ(got[i].channel, script[i].channel) << "msg " << i;
    EXPECT_EQ(got[i].fields, script[i].fields) << "msg " << i;
  }
}

// --- BFS tree / TreeProgramBase ---

TEST(BfsTreeTest, DepthsMatchCentralizedBfs) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(20, 0.15, 1, 9, rng);
    Network net(g, KnownFor(g), seed);
    net.Start([](NodeId v) { return std::make_unique<BfsProbeProgram>(v); });
    const auto stats = net.Run(10000);
    EXPECT_FALSE(stats.hit_round_limit);
    const auto reference = Bfs(g, g.NumNodes() - 1);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      const auto& p = dynamic_cast<BfsProbeProgram&>(net.ProgramAt(v));
      EXPECT_EQ(p.observed_depth, reference.depth[static_cast<std::size_t>(v)])
          << "node " << v << " seed " << seed;
    }
  }
}

TEST(BfsTreeTest, TreeBuildWithinDiameterPlusSlack) {
  const Graph g = MakePath(30);
  Network net(g, KnownFor(g), 0);
  net.Start([](NodeId v) { return std::make_unique<BfsProbeProgram>(v); });
  const auto stats = net.Run(10000);
  EXPECT_FALSE(stats.hit_round_limit);
  // Tree build is D+2 rounds; FINISH broadcast adds <= D+1 more.
  EXPECT_LE(stats.rounds, 2 * 29 + 10);
}

TEST(BfsTreeTest, SingleNodeGraph) {
  Graph g(1);
  g.Finalize();
  Network net(g, KnownFor(g), 0);
  net.Start([](NodeId v) { return std::make_unique<BfsProbeProgram>(v); });
  const auto stats = net.Run(100);
  EXPECT_FALSE(stats.hit_round_limit);
  const auto& p = dynamic_cast<BfsProbeProgram&>(net.ProgramAt(0));
  EXPECT_EQ(p.observed_depth, 0);
}

TEST(BfsTreeTest, StarRootedAtMaxId) {
  const Graph g = MakeStar(8);  // center 0, leaves 1..7; root is node 7
  Network net(g, KnownFor(g), 0);
  net.Start([](NodeId v) { return std::make_unique<BfsProbeProgram>(v); });
  net.Run(1000);
  EXPECT_EQ(dynamic_cast<BfsProbeProgram&>(net.ProgramAt(7)).observed_depth, 0);
  EXPECT_EQ(dynamic_cast<BfsProbeProgram&>(net.ProgramAt(0)).observed_depth, 1);
  EXPECT_EQ(dynamic_cast<BfsProbeProgram&>(net.ProgramAt(3)).observed_depth, 2);
}

}  // namespace
}  // namespace dsf
