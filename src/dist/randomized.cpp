#include "dist/randomized.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "common/random.hpp"
#include "congest/protocols.hpp"
#include "dist/embedding.hpp"
#include "dist/runtime.hpp"
#include "graph/properties.hpp"
#include "graph/shortest_paths.hpp"
#include "graph/union_find.hpp"
#include "steiner/moat.hpp"
#include "steiner/prune.hpp"
#include "steiner/spanner.hpp"

namespace dsf {

namespace {

constexpr std::int64_t kOpReportAnchors = 30;  // {op}
constexpr std::int64_t kOpConnect = 31;        // {op, label, level}

class RandProgram : public TreeProgramBase {
 public:
  RandProgram(NodeId id, Label label, std::uint64_t embed_seed, int max_hops,
              int levels)
      : TreeProgramBase(id),
        label_(label),
        embed_seed_(embed_seed),
        max_hops_(max_hops),
        levels_(levels) {}

  long le_rounds = 0;  // coordinator: rounds until the embedding quiesced

 protected:
  void OnTreeReady(NodeApi& api) override {
    module_.Configure(Id(), embed_seed_, api.Degree(), max_hops_);
    anc_pipe_.Configure(kChExchange, static_cast<int>(ChildLocals().size()));
    beta_scaled_ = DeriveBetaScaled(embed_seed_);
    floor_ = api.Round();
  }

  void OnAppRound(NodeApi& api) override {
    for (const auto& d : api.Inbox()) {
      switch (d.msg.channel) {
        case kChLe:
          module_.OnReceive(api, d);
          break;
        case kChExchange:
          anc_pipe_.OnReceive(d.msg, IsRoot(), &anc_items_);
          break;
        case kChToken:
          if (static_cast<NodeId>(d.msg.fields[0]) != Id()) {
            Route(api, static_cast<NodeId>(d.msg.fields[0]));
          }
          break;
        default:
          break;
      }
    }
    module_.Tick(api);
    anc_pipe_.Tick(api, ParentLocal(), IsRoot() ? &anc_items_ : nullptr);
    if (IsRoot()) Drive(api);
  }

  // Quiescent once the LE flood queues drained and the anchor pipeline has
  // nothing to push; token routing is inbox-driven (receipt forces a tick).
  [[nodiscard]] bool AppWantsTick() const override {
    return module_.HasPending() || anc_pipe_.WantsTick();
  }

  void OnCtrl(NodeApi& api, const Message& msg) override {
    if (msg.fields.empty()) return;
    switch (msg.fields[0]) {
      case kOpReportAnchors:
        if (label_ != kNoLabel) {
          for (int i = 0; i < levels_; ++i) {
            anc_pipe_.Seed({Id(), static_cast<std::int64_t>(label_), i,
                            AnchorAt(i)});
          }
        }
        anc_pipe_.MarkOwnDone();
        break;
      case kOpConnect:
        if (label_ != kNoLabel &&
            static_cast<Label>(msg.fields[1]) == label_) {
          const auto target = static_cast<NodeId>(
              AnchorAt(static_cast<int>(msg.fields[2])));
          if (target != Id()) Route(api, target);
        }
        break;
      default:
        break;
    }
  }

 private:
  [[nodiscard]] std::int64_t AnchorAt(int level) const {
    const Weight radius =
        static_cast<Weight>((beta_scaled_ << level) / kBetaScale);
    const LeEntry* e = module_.List().AncestorWithin(radius);
    return e != nullptr ? e->node : Id();
  }

  // Forwards a token toward `target` along the LE via-pointer, marking the
  // traversed edge. A truncated list may lack the entry (the hop budgets of
  // intersecting balls need not be consistent); the walk then stops and the
  // substituted second stage repairs the gap.
  void Route(NodeApi& api, NodeId target) {
    for (const auto& e : module_.List().Entries()) {
      if (e.node == target && e.via_local >= 0) {
        api.MarkEdge(e.via_local);
        api.Send(e.via_local, Message{kChToken, {target}});
        return;
      }
    }
  }

  void Drive(NodeApi& api) {
    const int d = api.Known().diameter_bound;
    switch (stage_) {
      case Stage::kEmbed:
        if (api.Round() > floor_ + d + 3 && GloballyQuiet(api)) {
          le_rounds = api.Round();
          stage_ = Stage::kAnchors;
          BroadcastCtrl(Message{kChCtrl, {kOpReportAnchors}});
        }
        break;
      case Stage::kAnchors:
        if (anc_pipe_.Complete()) {
          IssueConnects(api);
        }
        break;
      case Stage::kTokens:
        // All tokens start within D rounds of the last connect broadcast
        // being processed and then move every round, so this certifies
        // global completion (see the quiescence analysis in DESIGN.md §2).
        if (api.Round() > connect_round_ + 2 * d + 4 && GloballyQuiet(api)) {
          stage_ = Stage::kDone;
          Finish();
        }
        break;
      case Stage::kDone:
        break;
    }
  }

  void IssueConnects(NodeApi& api) {
    // anchors[label][terminal][level]
    std::map<Label, std::map<NodeId, std::vector<NodeId>>> anchors;
    for (const auto& item : anc_items_) {
      auto& chain = anchors[static_cast<Label>(item[1])]
                           [static_cast<NodeId>(item[0])];
      chain.resize(static_cast<std::size_t>(levels_), kNoNode);
      chain[static_cast<std::size_t>(item[2])] =
          static_cast<NodeId>(item[3]);
    }
    for (const auto& [label, chains] : anchors) {
      // Lowest level at which the component's terminals agree on an
      // ancestor; with full lists the top level always works (the global
      // maximum rank), with truncated lists the fallback leaves clusters
      // for stage 2.
      int level = levels_ - 1;
      for (int i = 0; i < levels_; ++i) {
        NodeId shared = kNoNode;
        bool agree = true;
        for (const auto& [term, chain] : chains) {
          const NodeId a = chain[static_cast<std::size_t>(i)];
          if (shared == kNoNode) shared = a;
          if (a != shared) {
            agree = false;
            break;
          }
        }
        if (agree) {
          level = i;
          break;
        }
      }
      BroadcastCtrl(Message{kChCtrl,
                            {kOpConnect, static_cast<std::int64_t>(label),
                             level}});
    }
    // The last connect op leaves the root once the control backlog drains;
    // tokens start within D more rounds of that.
    connect_round_ = api.Round() + static_cast<long>(CtrlBacklog());
    stage_ = Stage::kTokens;
  }

  enum class Stage { kEmbed, kAnchors, kTokens, kDone };

  Label label_;
  std::uint64_t embed_seed_;
  int max_hops_;
  int levels_;
  std::int64_t beta_scaled_ = kBetaScale;
  long floor_ = 0;
  LeListModule module_;
  CollectPipeline anc_pipe_;

  // Coordinator state.
  Stage stage_ = Stage::kEmbed;
  std::vector<std::vector<std::int64_t>> anc_items_;
  long connect_round_ = 0;
};

// Spanning forest of an edge subset under (weight, edge id) keys.
std::vector<EdgeId> SpanningForestOf(const Graph& g,
                                     std::vector<EdgeId> edges) {
  std::sort(edges.begin(), edges.end(), [&](EdgeId a, EdgeId b) {
    return std::tie(g.GetEdge(a).w, a) < std::tie(g.GetEdge(b).w, b);
  });
  UnionFind uf(g.NumNodes());
  std::vector<EdgeId> forest;
  for (const EdgeId e : edges) {
    const auto& edge = g.GetEdge(e);
    if (uf.Union(edge.u, edge.v)) forest.push_back(e);
  }
  return forest;
}

struct RepOutcome {
  std::vector<EdgeId> forest;
  int reduced_terminals = 0;
  long le_rounds = 0;
  RunStats stats;
};

// One full pipeline run: network stage 1, then the (possibly trivial)
// substituted stage 2 and the centralized pruning. `s` and `levels`
// (NumLevels of WD) come from the caller: nodes are granted only `known`.
RepOutcome RunPipelineOnce(const Graph& g, const StaticKnowledge& known,
                           long s, int levels, const IcInstance& minimal,
                           bool truncated,
                           const std::vector<EdgeId>& metered_cut,
                           const NetworkOptions& net_opts,
                           std::uint64_t rep_seed) {
  const long n = g.NumNodes();
  const long d = known.diameter_bound;
  const long t = minimal.NumTerminals();

  int max_hops = -1;
  if (truncated) {
    int h = 1;
    while (static_cast<long>(h) * h < n) ++h;
    max_hops = h;
  }

  Network net(g, known, rep_seed, net_opts);
  if (!metered_cut.empty()) net.RegisterCut(metered_cut);
  net.Start([&](NodeId v) {
    return std::make_unique<RandProgram>(v, minimal.LabelOf(v), rep_seed,
                                         max_hops, levels);
  });
  const long limit = 40000 + 40 * (n + s + d + 16) + 4 * t * levels +
                     8 * (t + 2) * (s + d + 8);
  RepOutcome out;
  out.stats = net.Run(limit);
  DSF_CHECK_MSG(!out.stats.hit_round_limit,
                "randomized Steiner forest exceeded the round budget");
  out.le_rounds =
      dynamic_cast<RandProgram&>(net.ProgramAt(g.NumNodes() - 1)).le_rounds;

  // Stage-1 output: spanning forest of the token-marked edges.
  std::vector<EdgeId> forest = SpanningForestOf(g, net.MarkedEdges());
  if (out.stats.cancelled) {
    // Partial marks from a cancelled run: skip stage 2 and the minimal
    // extraction — the caller reports `cancelled` and validation decides.
    out.forest = std::move(forest);
    return out;
  }

  // Stage 2 (substituted, DESIGN.md "Substitutions"): components of each
  // input component's terminals that stage 1 left apart become the
  // F-reduced instance on cluster representatives, solved on a greedy
  // metric spanner and realized as least-weight paths.
  UnionFind comp(g.NumNodes());
  for (const EdgeId e : forest) comp.Union(g.GetEdge(e).u, g.GetEdge(e).v);
  std::map<Label, std::map<int, NodeId>> reps;  // label -> comp root -> rep
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (!minimal.IsTerminal(v)) continue;
    auto [it, inserted] =
        reps[minimal.LabelOf(v)].try_emplace(comp.Find(v), v);
    if (!inserted) it->second = std::min(it->second, v);
  }
  std::vector<NodeId> supers;
  std::vector<Label> super_labels;
  for (const auto& [label, clusters] : reps) {
    if (clusters.size() < 2) continue;
    for (const auto& [root, rep] : clusters) {
      supers.push_back(rep);
      super_labels.push_back(label);
    }
  }
  if (!supers.empty()) {
    const int m = static_cast<int>(supers.size());
    out.reduced_terminals = m;
    std::vector<ShortestPathTree> trees;
    trees.reserve(static_cast<std::size_t>(m));
    for (const NodeId v : supers) trees.push_back(Dijkstra(g, v));
    std::vector<std::vector<Weight>> dist(
        static_cast<std::size_t>(m),
        std::vector<Weight>(static_cast<std::size_t>(m), 0));
    for (int a = 0; a < m; ++a) {
      for (int b = 0; b < m; ++b) {
        dist[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
            trees[static_cast<std::size_t>(a)]
                .dist[static_cast<std::size_t>(supers[static_cast<std::size_t>(b)])];
      }
    }
    int stretch_k = 2;
    while ((1 << stretch_k) < m) ++stretch_k;
    const auto spanner = GreedyMetricSpanner(dist, stretch_k);
    Graph sg(m);
    for (const auto& e : spanner) sg.AddEdge(e.a, e.b, e.w);
    sg.Finalize();
    IcInstance reduced;
    reduced.labels.assign(static_cast<std::size_t>(m), kNoLabel);
    for (int a = 0; a < m; ++a) {
      reduced.labels[static_cast<std::size_t>(a)] =
          super_labels[static_cast<std::size_t>(a)];
    }
    const auto solved = CentralizedMoatGrowing(sg, reduced);
    std::set<EdgeId> combined(forest.begin(), forest.end());
    for (const EdgeId se : solved.forest) {
      const auto& edge = sg.GetEdge(se);
      for (const EdgeId e : trees[static_cast<std::size_t>(edge.u)].PathTo(
               supers[static_cast<std::size_t>(edge.v)])) {
        combined.insert(e);
      }
    }
    out.stats.charged_rounds += static_cast<long>(m) * (s + d + 2);
    forest = SpanningForestOf(
        g, std::vector<EdgeId>(combined.begin(), combined.end()));
  }
  if (truncated) {
    // Charge for the propagation the √n hop budget substituted away.
    out.stats.charged_rounds += s + d + 2;
  }

  out.forest = MinimalFeasibleSubforest(g, minimal, forest);
  return out;
}

void AccumulateStats(RunStats& into, const RunStats& rep) {
  into.rounds += rep.rounds;
  into.messages += rep.messages;
  into.total_bits += rep.total_bits;
  into.max_bits_per_edge_round =
      std::max(into.max_bits_per_edge_round, rep.max_bits_per_edge_round);
  into.cut_bits += rep.cut_bits;
  into.cut_messages += rep.cut_messages;
  into.charged_rounds += rep.charged_rounds;
  into.phases += rep.phases;
  into.hit_round_limit = into.hit_round_limit || rep.hit_round_limit;
  into.cancelled = into.cancelled || rep.cancelled;
}

}  // namespace

RandomizedResult RunRandomizedSteinerForest(const Graph& g,
                                            const IcInstance& ic,
                                            const RandomizedOptions& options,
                                            std::uint64_t seed) {
  DSF_CHECK(ic.NumNodes() == g.NumNodes());
  DSF_CHECK(options.repetitions >= 1);
  const StaticKnowledge known = detail::KnownOrThrow(g);
  const IcInstance minimal = MakeMinimal(ic);

  RandomizedResult result;
  if (minimal.NumTerminals() == 0) return result;

  const GraphParameters& params = CachedParameters(g);
  const long s = params.shortest_path_diameter;
  const int levels = NumLevels(params.weighted_diameter);
  result.truncated = s * s > static_cast<long>(known.n);

  bool have_best = false;
  Weight best_weight = 0;
  for (int rep = 0; rep < options.repetitions; ++rep) {
    const auto out = RunPipelineOnce(
        g, known, s, levels, minimal, result.truncated, options.metered_cut,
        options.net, DeriveSeed(seed, static_cast<std::uint64_t>(rep)));
    AccumulateStats(result.stats, out.stats);
    result.le_rounds += out.le_rounds;
    if (out.stats.cancelled) {
      // A cancelled repetition's partial forest may be infeasible yet
      // cheap; never let it displace a completed repetition's result.
      if (!have_best) result.forest = out.forest;
      break;
    }
    const Weight w = g.WeightOf(out.forest);
    if (!have_best || w < best_weight) {
      have_best = true;
      best_weight = w;
      result.forest = out.forest;
      result.reduced_terminals = out.reduced_terminals;
    }
  }
  return result;
}

RandomizedResult RunKhanBaseline(const Graph& g, const IcInstance& ic,
                                 std::uint64_t seed,
                                 const NetworkOptions& net_opts) {
  DSF_CHECK(ic.NumNodes() == g.NumNodes());
  const StaticKnowledge known = detail::KnownOrThrow(g);
  const IcInstance minimal = MakeMinimal(ic);

  RandomizedResult result;
  if (minimal.NumTerminals() == 0) return result;

  const GraphParameters& params = CachedParameters(g);
  const long s = params.shortest_path_diameter;
  const int levels = NumLevels(params.weighted_diameter);
  // One full (untruncated) selection pass per input component — the
  // per-component repetition the filtered single pass avoids.
  std::vector<EdgeId> combined;
  const auto labels = minimal.DistinctLabels();
  for (std::size_t i = 0; i < labels.size(); ++i) {
    IcInstance sub;
    sub.labels.assign(static_cast<std::size_t>(g.NumNodes()), kNoLabel);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (minimal.LabelOf(v) == labels[i]) {
        sub.labels[static_cast<std::size_t>(v)] = labels[i];
      }
    }
    const auto out =
        RunPipelineOnce(g, known, s, levels, sub, /*truncated=*/false, {},
                        net_opts, DeriveSeed(seed, 0x4a5 + i));
    AccumulateStats(result.stats, out.stats);
    result.le_rounds += out.le_rounds;
    result.reduced_terminals += out.reduced_terminals;
    combined.insert(combined.end(), out.forest.begin(), out.forest.end());
    if (out.stats.cancelled) break;
  }
  if (result.stats.cancelled) {
    result.forest = SpanningForestOf(g, std::move(combined));
    return result;
  }
  result.forest = MinimalFeasibleSubforest(
      g, minimal, SpanningForestOf(g, std::move(combined)));
  return result;
}

}  // namespace dsf
