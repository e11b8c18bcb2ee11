// Golden-stats regression tests: the simulator's bit-reproducibility
// contract (DESIGN.md §2/§8). The pinned numbers below were captured from
// the pre-refactor simulator (O(m)-allocation rounds, adjacency-scan
// delivery, tick-everyone scheduling); the rearchitected hot loop — mirror
// incidence, dirty-list accounting, active-set scheduling, parallel phase
// (i) — must reproduce every one of them exactly, under every scheduler
// configuration. A drift in rounds, messages, bits, or the marked-edge set
// is a correctness bug, not a tuning artifact.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/random.hpp"
#include "congest/network.hpp"
#include "dist/det_moat.hpp"
#include "dist/randomized.hpp"
#include "dist/transform.hpp"
#include "graph/generators.hpp"
#include "steiner/instance.hpp"
#include "workload/spec.hpp"

namespace dsf {
namespace {

// The three scheduler configurations under test: the sequential legacy-shape
// path, active-set scheduling, and the thread-pool path (forced to 4
// executors so the pool machinery runs even on single-core CI).
const NetworkOptions kSequential{/*active_set=*/false, /*threads=*/1};
const NetworkOptions kActiveSet{/*active_set=*/true, /*threads=*/1};
const NetworkOptions kParallel{/*active_set=*/true, /*threads=*/4};

const NetworkOptions kAllConfigs[] = {kSequential, kActiveSet, kParallel};

IcInstance SpreadTerminals(int n, int k, SplitMix64& rng) {
  std::vector<std::pair<NodeId, Label>> assign;
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  for (int c = 0; c < k; ++c) {
    for (int j = 0; j < 2; ++j) {
      NodeId v = 0;
      do {
        v = static_cast<NodeId>(rng.NextBelow(static_cast<std::uint64_t>(n)));
      } while (used[static_cast<std::size_t>(v)]);
      used[static_cast<std::size_t>(v)] = 1;
      assign.push_back({v, static_cast<Label>(c + 1)});
    }
  }
  return MakeIcInstance(n, assign);
}

void ExpectStats(const RunStats& s, long rounds, long messages,
                 long total_bits, long max_bits, long charged, long phases) {
  EXPECT_EQ(s.rounds, rounds);
  EXPECT_EQ(s.messages, messages);
  EXPECT_EQ(s.total_bits, total_bits);
  EXPECT_EQ(s.max_bits_per_edge_round, max_bits);
  EXPECT_EQ(s.cut_bits, 0);
  EXPECT_EQ(s.cut_messages, 0);
  EXPECT_EQ(s.charged_rounds, charged);
  EXPECT_EQ(s.phases, phases);
  EXPECT_FALSE(s.hit_round_limit);
}

// Deterministic run: the moat-growing protocol on a fixed random topology.
TEST(NetworkGoldenTest, DeterministicMoatPinnedUnderAllSchedulers) {
  SplitMix64 rng(7);
  const Graph g = MakeConnectedRandom(24, 0.2, 1, 16, rng);
  const IcInstance ic = SpreadTerminals(24, 3, rng);
  ASSERT_EQ(g.NumEdges(), 75);

  const std::vector<EdgeId> want_raw{9, 25, 52, 50, 20, 6, 43};
  const std::vector<EdgeId> want_forest{6, 9, 20, 25, 43, 50, 52};
  for (const auto& net_opts : kAllConfigs) {
    DetMoatOptions opts;
    opts.net = net_opts;
    const auto res = RunDistributedMoat(g, ic, opts, 5);
    SCOPED_TRACE(testing::Message() << "active_set=" << net_opts.active_set
                                    << " threads=" << net_opts.threads);
    ExpectStats(res.stats, /*rounds=*/68, /*messages=*/1916,
                /*total_bits=*/35828, /*max_bits=*/120, /*charged=*/0,
                /*phases=*/1);
    EXPECT_EQ(res.raw_forest, want_raw);
    EXPECT_EQ(res.forest, want_forest);
    EXPECT_EQ(res.dual_sum, 135168);
    EXPECT_EQ(res.phases, 1);
  }
}

// Randomized run: per-node RNG streams, embedding ranks, and token routing
// must all be scheduler-independent.
TEST(NetworkGoldenTest, RandomizedPinnedUnderAllSchedulers) {
  SplitMix64 rng(11);
  const Graph g = MakeConnectedRandom(20, 0.25, 1, 12, rng);
  const IcInstance ic = SpreadTerminals(20, 2, rng);
  ASSERT_EQ(g.NumEdges(), 52);

  const std::vector<EdgeId> want_forest{1, 4, 12, 18, 20, 27, 28, 33};
  for (const auto& net_opts : kAllConfigs) {
    RandomizedOptions opts;
    opts.repetitions = 1;
    opts.net = net_opts;
    const auto res = RunRandomizedSteinerForest(g, ic, opts, 9);
    SCOPED_TRACE(testing::Message() << "active_set=" << net_opts.active_set
                                    << " threads=" << net_opts.threads);
    ExpectStats(res.stats, /*rounds=*/47, /*messages=*/816,
                /*total_bits=*/36595, /*max_bits=*/175, /*charged=*/10,
                /*phases=*/0);
    EXPECT_EQ(res.forest, want_forest);
    EXPECT_EQ(res.le_rounds, 17);
    EXPECT_EQ(res.reduced_terminals, 0);
  }
}

// Protocol pins at the size the cold-dist workload serves: the four n = 240
// families of perfbench's cold-dist stream plus one dense graph whose
// maximum degree passes 128, each with a random-ic (k=3, tpc=2) and a
// random-cr (pairs=4) instance. A CR instance's transformed IC has up to 8
// terminals, so nodes carry more than 6 Bellman-Ford sources, and the dense
// graph puts more than two 64-edge words under one node's flood queues. Each
// row pins rounds, messages, bits, charged rounds and a digest of the
// forest (of the assigned labels for the transform) under every scheduler.
struct ProtocolPin {
  const char* name;
  long rounds;
  long messages;
  long total_bits;
  long max_bits;
  long charged;
  std::uint64_t output;
};

std::uint64_t DigestOf(const std::vector<std::int64_t>& values) {
  std::uint64_t h = Mix64(values.size());
  for (const std::int64_t v : values) {
    h = Mix64(h ^ static_cast<std::uint64_t>(v));
  }
  return h;
}

void ExpectPin(const ProtocolPin& want, const std::string& name,
               const RunStats& s, const std::vector<std::int64_t>& output) {
  const ProtocolPin got{name.c_str(),
                        s.rounds,
                        s.messages,
                        s.total_bits,
                        s.max_bits_per_edge_round,
                        s.charged_rounds,
                        DigestOf(output)};
  EXPECT_FALSE(s.hit_round_limit);
  const bool same = name == want.name && got.rounds == want.rounds &&
                    got.messages == want.messages &&
                    got.total_bits == want.total_bits &&
                    got.max_bits == want.max_bits &&
                    got.charged == want.charged && got.output == want.output;
  // On a mismatch, print the row as it would be written in the table.
  EXPECT_TRUE(same) << "got {\"" << got.name << "\", " << got.rounds << ", "
                    << got.messages << ", " << got.total_bits << ", "
                    << got.max_bits << ", " << got.charged << ", "
                    << got.output << "ULL},";
}

std::vector<std::int64_t> AsValues(const std::vector<EdgeId>& forest) {
  return {forest.begin(), forest.end()};
}

constexpr const char* kColdDistSpec = R"(seed 1
generate grid rows=15 cols=16 as grid
sample random-ic ic k=3 tpc=2
sample random-cr cr pairs=4
generate er n=240 p=0.02 as er
sample random-ic ic k=3 tpc=2
sample random-cr cr pairs=4
generate power-law n=240 m=2 as power-law
sample random-ic ic k=3 tpc=2
sample random-cr cr pairs=4
generate expander-far-pairs pairs=4 tail=8 core=176 as expander
sample random-ic ic k=3 tpc=2
sample random-cr cr pairs=4
generate er n=200 p=0.7 min_w=1 max_w=9 as dense
sample random-ic ic k=3 tpc=2
sample random-cr cr pairs=4
)";

// Per case, in order: the CR->IC transform, then dist-det, dist-rand (one
// repetition) and dist-khan on the IC instance and on the transformed CR.
const ProtocolPin kColdDistPins[] = {
    {"grid/cr->ic", 99, 3931, 83890, 80, 0, 9568658306531601094ULL},
    {"grid/ic/dist-det", 331, 14146, 315179, 134, 0, 13298085148239395189ULL},
    {"grid/ic/dist-rand", 237, 12544, 555907, 190, 183, 220116947536668996ULL},
    {"grid/ic/dist-khan", 735, 38326, 1901890, 191, 0, 13329221924489454135ULL},
    {"grid/cr/dist-det", 382, 18322, 411229, 135, 0, 16794691558977622585ULL},
    {"grid/cr/dist-rand", 254, 13195, 576946, 190, 305,
     16794691558977622585ULL},
    {"grid/cr/dist-khan", 977, 51629, 2546458, 191, 0, 10076691562752352502ULL},
    {"er/cr->ic", 26, 4482, 83998, 78, 0, 15015789738529462873ULL},
    {"er/ic/dist-det", 112, 22334, 473278, 125, 0, 5878937807032564404ULL},
    {"er/ic/dist-rand", 85, 25209, 1646665, 185, 0, 3107383506053634098ULL},
    {"er/ic/dist-khan", 205, 68478, 4520893, 186, 0, 5844076387589770190ULL},
    {"er/cr/dist-det", 124, 26083, 567694, 125, 0, 5616951105449351486ULL},
    {"er/cr/dist-rand", 76, 25580, 1657797, 185, 0, 15880063281664600275ULL},
    {"er/cr/dist-khan", 273, 92120, 6097560, 186, 0, 10122003520300649586ULL},
    {"power-law/cr->ic", 32, 3485, 67737, 79, 0, 16330254908271482098ULL},
    {"power-law/ic/dist-det", 124, 11745, 249432, 125, 0,
     6946819087886076913ULL},
    {"power-law/ic/dist-rand", 103, 12044, 647191, 186, 0,
     6946819087886076913ULL},
    {"power-law/ic/dist-khan", 234, 36670, 2105375, 188, 0,
     14668498045092488191ULL},
    {"power-law/cr/dist-det", 142, 13771, 291651, 125, 0,
     14368896135821391782ULL},
    {"power-law/cr/dist-rand", 102, 12081, 650063, 186, 0,
     11344604986751914411ULL},
    {"power-law/cr/dist-khan", 234, 36668, 2107555, 188, 0,
     1234236469419361261ULL},
    {"expander/cr->ic", 75, 3574, 71480, 80, 0, 15244137692209277943ULL},
    {"expander/ic/dist-det", 208, 7857, 167782, 106, 0, 8199816198063741547ULL},
    {"expander/ic/dist-rand", 203, 7584, 271513, 185, 60,
     6132010241379842581ULL},
    {"expander/ic/dist-khan", 599, 19326, 729650, 188, 0,
     17675895757588281571ULL},
    {"expander/cr/dist-det", 300, 11162, 229733, 105, 0,
     17541760253080009649ULL},
    {"expander/cr/dist-rand", 208, 8179, 286050, 185, 180,
     510569729855853196ULL},
    {"expander/cr/dist-khan", 797, 26073, 985355, 188, 0,
     2317330995589591007ULL},
    {"dense/cr->ic", 18, 30058, 337511, 77, 0, 16169946433754543125ULL},
    {"dense/ic/dist-det", 54, 276927, 5437947, 119, 0, 17439975150856001506ULL},
    {"dense/ic/dist-rand", 47, 323964, 23688251, 179, 0,
     13429158901518410699ULL},
    {"dense/ic/dist-khan", 133, 1155601, 87213582, 181, 0,
     9797603231878926926ULL},
    {"dense/cr/dist-det", 57, 316370, 6265496, 120, 0, 1152420209298392259ULL},
    {"dense/cr/dist-rand", 47, 323968, 23690833, 179, 0,
     5633715469771582859ULL},
    {"dense/cr/dist-khan", 134, 1155619, 87216744, 181, 0,
     3988736485516164175ULL},
};

TEST(NetworkGoldenTest, ColdDistFamiliesPinnedUnderAllSchedulers) {
  std::istringstream in(kColdDistSpec);
  const Workload workload = ExpandWorkload(ParseWorkloadSpec(in, "<pins>"));
  ASSERT_EQ(workload.cases.size(), 5u);
  const Graph& dense = workload.cases.back().graph;
  int max_degree = 0;
  for (NodeId v = 0; v < dense.NumNodes(); ++v) {
    max_degree =
        std::max(max_degree, static_cast<int>(dense.Neighbors(v).size()));
  }
  ASSERT_GT(max_degree, 128);

  int max_sources = 0;
  for (const auto& net_opts : kAllConfigs) {
    SCOPED_TRACE(testing::Message() << "active_set=" << net_opts.active_set
                                    << " threads=" << net_opts.threads);
    std::size_t row = 0;
    const auto check = [&](const std::string& name, const RunStats& stats,
                           const std::vector<std::int64_t>& output) {
      static const ProtocolPin kMissing{"<missing row>", 0, 0, 0, 0, 0, 0};
      const std::size_t i = row++;
      ExpectPin(i < std::size(kColdDistPins) ? kColdDistPins[i] : kMissing,
                name, stats, output);
    };
    for (const WorkloadCase& wc : workload.cases) {
      const Graph& g = wc.graph;
      ASSERT_EQ(wc.instances.size(), 2u);
      const TransformResult tr =
          RunDistributedCrToIc(g, wc.instances[1].cr, 3, net_opts);
      check(wc.name + "/cr->ic", tr.stats,
            {tr.instance.labels.begin(), tr.instance.labels.end()});
      max_sources = std::max(max_sources, tr.instance.NumTerminals());
      for (const IcInstance* ic : {&wc.instances[0].ic, &tr.instance}) {
        const std::string tag =
            wc.name + (ic == &tr.instance ? "/cr" : "/ic") + "/";
        DetMoatOptions det;
        det.net = net_opts;
        const auto d = RunDistributedMoat(g, *ic, det, 5);
        check(tag + "dist-det", d.stats, AsValues(d.forest));
        RandomizedOptions rand;
        rand.repetitions = 1;
        rand.net = net_opts;
        const auto r = RunRandomizedSteinerForest(g, *ic, rand, 7);
        check(tag + "dist-rand", r.stats, AsValues(r.forest));
        const auto k = RunKhanBaseline(g, *ic, 9, net_opts);
        check(tag + "dist-khan", k.stats, AsValues(k.forest));
      }
    }
    EXPECT_EQ(row, std::size(kColdDistPins));
  }
  EXPECT_GT(max_sources, 6);
}

// Network-level cross-config equality with a program that exercises RNG
// draws, marking/unmarking, and irregular sending — no protocol scaffolding
// in the way. All three schedulers must agree field by field.
class ChurnProgram : public NodeProgram {
 public:
  explicit ChurnProgram(NodeId id) : id_(id) {}

  void OnRound(NodeApi& api) override {
    if (api.Round() >= 12) {
      done_ = true;
      return;
    }
    const auto draw = api.Rng().Next();
    const int deg = api.Degree();
    if (deg == 0) return;
    const int local = static_cast<int>(draw % static_cast<std::uint64_t>(deg));
    if (draw % 3 == 0) {
      api.Send(local, Message{kChApp, {static_cast<std::int64_t>(draw & 0xff),
                                       id_, api.Round()}});
    }
    if (draw % 5 == 0) api.MarkEdge(local);
    if (draw % 7 == 0) api.UnmarkEdge(local);
    for (const auto& d : api.Inbox()) {
      if (d.msg.fields[0] % 2 == 0) api.MarkEdge(d.from_local);
    }
  }
  [[nodiscard]] bool Done() const override { return done_; }

 private:
  NodeId id_;
  bool done_ = false;
};

TEST(NetworkGoldenTest, ChurnProgramAgreesAcrossSchedulers) {
  SplitMix64 rng(21);
  const Graph g = MakeConnectedRandom(40, 0.12, 1, 9, rng);
  StaticKnowledge known;
  known.n = g.NumNodes();
  known.diameter_bound = 10;

  std::vector<RunStats> stats;
  std::vector<std::vector<EdgeId>> marked;
  for (const auto& net_opts : kAllConfigs) {
    Network net(g, known, /*seed=*/77, net_opts);
    net.Start([](NodeId v) { return std::make_unique<ChurnProgram>(v); });
    stats.push_back(net.Run(100));
    marked.push_back(net.MarkedEdges());
  }
  for (std::size_t i = 1; i < stats.size(); ++i) {
    EXPECT_EQ(stats[i].rounds, stats[0].rounds);
    EXPECT_EQ(stats[i].messages, stats[0].messages);
    EXPECT_EQ(stats[i].total_bits, stats[0].total_bits);
    EXPECT_EQ(stats[i].max_bits_per_edge_round,
              stats[0].max_bits_per_edge_round);
    EXPECT_EQ(marked[i], marked[0]);
  }
  EXPECT_GT(stats[0].messages, 0);
  EXPECT_FALSE(marked[0].empty());
}

// Arena-delivery golden: a program that hammers exactly the surfaces the
// per-round message arena owns — several messages per edge per round across
// application and scaffolding channels (the latter exempt from app-activity
// tracking), payload widths from empty to the FieldList capacity, extreme
// field values, and mark/unmark churn — while folding every delivery, in
// inbox order, into a running checksum. The pinned RunStats and checksum
// were captured from the pre-arena simulator (per-node inbox vectors,
// recycled outboxes); the SoA arena with prefix-sum receiver offsets must
// reproduce them bit for bit under all three schedulers: any change to
// delivery order, payload bytes, accounting, or activity tracking moves the
// checksum.
class ArenaStressProgram : public NodeProgram {
 public:
  explicit ArenaStressProgram(NodeId id) : id_(id) {}

  void OnRound(NodeApi& api) override {
    for (const auto& d : api.Inbox()) {
      sum_ = Mix64(sum_ ^ static_cast<std::uint64_t>(d.from_local));
      sum_ = Mix64(sum_ ^ static_cast<std::uint64_t>(d.from_node));
      sum_ = Mix64(sum_ ^ static_cast<std::uint64_t>(d.msg.channel));
      for (const std::int64_t f : d.msg.fields) {
        sum_ = Mix64(sum_ ^ static_cast<std::uint64_t>(f));
      }
      if (d.msg.channel == kChApp && !d.msg.fields.empty() &&
          d.msg.fields[0] % 3 == 0) {
        api.MarkEdge(d.from_local);
      }
      if (d.msg.channel == kChToken && d.msg.fields[0] % 4 == 0) {
        api.UnmarkEdge(d.from_local);
      }
    }
    sum_ = Mix64(sum_ ^ static_cast<std::uint64_t>(api.LastAppActivity()));
    if (api.Round() >= 10) {
      done_ = true;
      return;
    }
    const int deg = api.Degree();
    for (int i = 0; i < deg; ++i) {
      const std::int64_t r = api.Round();
      // Empty payload on a scaffolding channel (no app activity).
      if ((id_ + r) % 3 == 0) api.Send(i, Message{kChQuiesce, {}});
      // Full-width payload with extreme values on an app channel.
      if ((id_ + i) % 2 == 0) {
        api.Send(i, Message{kChApp,
                            {std::numeric_limits<std::int64_t>::min(),
                             std::numeric_limits<std::int64_t>::max(), id_, r,
                             -r, id_ * 3, 0, -1}});
      }
      // Mid-width payloads on two more channels, same edge, same round.
      api.Send(i, Message{kChApp, {id_ + r, i}});
      if (r % 4 == 1) api.Send(i, Message{kChToken, {id_ - 2 * r}});
      if (r % 5 == 2) api.Send(i, Message{kChCtrl, {i, id_, r, 7}});
    }
  }
  [[nodiscard]] bool Done() const override { return done_; }

  std::uint64_t sum_ = 0;

 private:
  NodeId id_;
  bool done_ = false;
};

TEST(NetworkGoldenTest, ArenaDeliveryPinnedUnderAllSchedulers) {
  SplitMix64 rng(31);
  const Graph g = MakeConnectedRandom(48, 0.14, 1, 21, rng);
  ASSERT_EQ(g.NumEdges(), 200);
  StaticKnowledge known;
  known.n = g.NumNodes();
  known.diameter_bound = 8;
  known.bandwidth_bits = 1 << 12;  // roomy: several wide messages per edge

  for (const auto& net_opts : kAllConfigs) {
    Network net(g, known, /*seed=*/5, net_opts);
    net.Start([](NodeId v) { return std::make_unique<ArenaStressProgram>(v); });
    const auto stats = net.Run(100);
    SCOPED_TRACE(testing::Message() << "active_set=" << net_opts.active_set
                                    << " threads=" << net_opts.threads);
    ExpectStats(stats, /*rounds=*/11, /*messages=*/9317,
                /*total_bits=*/419806, /*max_bits=*/216, /*charged=*/0,
                /*phases=*/0);
    std::uint64_t combined = 0;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      combined = Mix64(
          combined ^
          dynamic_cast<ArenaStressProgram&>(net.ProgramAt(v)).sum_);
    }
    EXPECT_EQ(combined, 2579996461171503996ULL);
    const auto marked = net.MarkedEdges();
    EXPECT_EQ(marked.size(), 137u);
    std::uint64_t marked_sum = 0;
    for (const EdgeId e : marked) {
      marked_sum = Mix64(marked_sum ^ static_cast<std::uint64_t>(e));
    }
    EXPECT_EQ(marked_sum, 10107931410210139188ULL);
  }
}

// Inbox ordering is part of the reproducibility contract the arena's
// counting-sort scatter must preserve: deliveries arrive grouped by sender
// in ascending node order, and multiple sends from one sender (same round)
// stay in send order.
TEST(NetworkGoldenTest, InboxOrderedBySenderThenSendOrder) {
  class ToCenter : public NodeProgram {
   public:
    explicit ToCenter(NodeId id) : id_(id) {}
    void OnRound(NodeApi& api) override {
      if (api.Round() == 0 && id_ != 0) {
        // Leaves: local edge 0 points at the star center.
        api.Send(0, Message{kChApp, {id_, 100}});
        api.Send(0, Message{kChApp, {id_, 200}});
      }
      if (api.Round() == 1 && id_ == 0) {
        for (const auto& d : api.Inbox()) {
          order.push_back({d.msg.fields[0], d.msg.fields[1]});
          EXPECT_EQ(d.from_node, static_cast<NodeId>(d.msg.fields[0]));
        }
      }
      done_ = true;
    }
    [[nodiscard]] bool Done() const override { return done_; }
    std::vector<std::pair<std::int64_t, std::int64_t>> order;

   private:
    NodeId id_;
    bool done_ = false;
  };

  const Graph g = MakeStar(6);  // center 0, leaves 1..5
  StaticKnowledge known;
  known.n = g.NumNodes();
  known.diameter_bound = 2;
  for (const auto& net_opts : kAllConfigs) {
    Network net(g, known, /*seed=*/3, net_opts);
    net.Start([](NodeId v) { return std::make_unique<ToCenter>(v); });
    net.Run(10);
    const auto& center = dynamic_cast<ToCenter&>(net.ProgramAt(0));
    std::vector<std::pair<std::int64_t, std::int64_t>> want;
    for (std::int64_t v = 1; v <= 5; ++v) {
      want.push_back({v, 100});
      want.push_back({v, 200});
    }
    EXPECT_EQ(center.order, want);
  }
}

// The default-bandwidth computation must survive n near the int limit (it
// used to shift a plain int past bit 30).
TEST(NetworkGoldenTest, DefaultBandwidthSurvivesHugeN) {
  const Graph g = MakePath(2);
  StaticKnowledge known;
  known.n = 2000000000;  // forces the shift loop up to bit 31
  known.diameter_bound = 1;
  Network net(g, known, 1);
  EXPECT_EQ(net.Known().bandwidth_bits, 8 * 31);
}

// Mirror incidence sanity at the graph layer: every slot's mirror points
// back at the same edge, and the mirror of the mirror is the slot itself.
TEST(NetworkGoldenTest, MirrorLocalsAreInvolutive) {
  SplitMix64 rng(3);
  const Graph g = MakeConnectedRandom(30, 0.15, 1, 5, rng);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    const auto nb = g.Neighbors(u);
    const auto mirrors = g.MirrorLocals(u);
    ASSERT_EQ(nb.size(), mirrors.size());
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const NodeId w = nb[i].neighbor;
      const auto back = static_cast<std::size_t>(mirrors[i]);
      const auto wnb = g.Neighbors(w);
      const auto wmirrors = g.MirrorLocals(w);
      ASSERT_LT(back, wnb.size());
      EXPECT_EQ(wnb[back].edge, nb[i].edge);
      EXPECT_EQ(wnb[back].neighbor, u);
      EXPECT_EQ(static_cast<std::size_t>(wmirrors[back]), i);
    }
  }
}

}  // namespace
}  // namespace dsf
