#include "dist/det_moat.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <set>

#include "congest/protocols.hpp"
#include "dist/runtime.hpp"
#include "graph/union_find.hpp"
#include "steiner/prune.hpp"

namespace dsf {

namespace {

// Control opcodes (kCtrlFinish == -1 reserved).
constexpr std::int64_t kOpReportDistances = 10;  // {op}
constexpr std::int64_t kOpWalk = 11;             // {op, src_node, dst_node}
constexpr std::int64_t kOpDropLabel = 12;        // {op, label}

// At most this many Bellman-Ford updates leave a node per edge per round;
// together with the detector/control traffic this keeps every edge within
// the CONGEST O(log n) budget metered by the simulator.
constexpr int kBfPerRound = 2;

class DetMoatProgram : public TreeProgramBase {
 public:
  DetMoatProgram(NodeId id, Label label, Real epsilon)
      : TreeProgramBase(id), label_(label), epsilon_(epsilon) {}

  // Coordinator outputs (valid at the root once the run finishes).
  MoatSchedule schedule;
  std::vector<EdgeId> raw_edges;

 protected:
  void OnTreeReady(NodeApi& api) override {
    const int children = static_cast<int>(ChildLocals().size());
    term_pipe_.Configure(kChLabel, children);
    dist_pipe_.Configure(kChExchange, children);
    path_pipe_.Configure(kChFilter, children);
    bf_queues_.Configure(api.Degree());
    if (label_ != kNoLabel) {
      term_pipe_.Seed({Id(), static_cast<std::int64_t>(label_)});
      // This node is a Bellman-Ford source.
      const int slot = SlotOf(Id());
      bf_[static_cast<std::size_t>(slot)] = BfLabel{/*dist=*/0, /*hops=*/0};
      bf_queues_.EnqueueAll(slot, /*except_local=*/-1);
    }
    term_pipe_.MarkOwnDone();
  }

  void OnAppRound(NodeApi& api) override {
    for (const auto& d : api.Inbox()) {
      switch (d.msg.channel) {
        case kChLabel:
          term_pipe_.OnReceive(d.msg, IsRoot(), &term_items_);
          break;
        case kChExchange:
          dist_pipe_.OnReceive(d.msg, IsRoot(), &dist_items_);
          break;
        case kChFilter:
          path_pipe_.OnReceive(d.msg, IsRoot(), &path_items_);
          break;
        case kChBellman:
          OnBellman(api, d);
          break;
        case kChToken:
          if (static_cast<NodeId>(d.msg.fields[0]) != Id()) {
            WalkStep(api, static_cast<NodeId>(d.msg.fields[0]));
          }
          break;
        default:
          break;
      }
    }
    TickBellman(api);
    term_pipe_.Tick(api, ParentLocal(), IsRoot() ? &term_items_ : nullptr);
    dist_pipe_.Tick(api, ParentLocal(), IsRoot() ? &dist_items_ : nullptr);
    path_pipe_.Tick(api, ParentLocal(), IsRoot() ? &path_items_ : nullptr);
    if (IsRoot()) DriveCoordinator(api);
  }

  // Quiescent once the Bellman-Ford queues drained and no pipeline has a
  // payload or DONE marker to push (the root keeps ticking regardless — it
  // drives the stage machine).
  [[nodiscard]] bool AppWantsTick() const override {
    return bf_queues_.HasPending() || term_pipe_.WantsTick() ||
           dist_pipe_.WantsTick() || path_pipe_.WantsTick();
  }

  void OnCtrl(NodeApi& api, const Message& msg) override {
    if (msg.fields.empty()) return;
    switch (msg.fields[0]) {
      case kOpReportDistances:
        if (label_ != kNoLabel) {
          // Sources are reported in increasing id order.
          std::vector<int> slots(bf_.size());
          std::iota(slots.begin(), slots.end(), 0);
          std::sort(slots.begin(), slots.end(), [&](int a, int b) {
            return bf_queues_.KeyOf(a) < bf_queues_.KeyOf(b);
          });
          for (const int slot : slots) {
            const BfLabel& lab = bf_[static_cast<std::size_t>(slot)];
            dist_pipe_.Seed(
                {Id(), bf_queues_.KeyOf(slot), lab.dist, lab.hops});
          }
        }
        dist_pipe_.MarkOwnDone();
        break;
      case kOpWalk:
        if (static_cast<NodeId>(msg.fields[2]) == Id()) {
          WalkStep(api, static_cast<NodeId>(msg.fields[1]));
        }
        break;
      case kOpDropLabel:
        // Distributed Lemma 2.4: singleton components leave the instance.
        if (label_ != kNoLabel &&
            static_cast<Label>(msg.fields[1]) == label_) {
          label_ = kNoLabel;
        }
        break;
      default:
        break;
    }
  }

 private:
  // Canonical shortest-path label from one terminal source, matching the
  // centralized Dijkstra fixed point: minimal dist, then minimal hops among
  // least-weight paths, then smallest predecessor id.
  struct BfLabel {
    Weight dist = kInfWeight;
    std::int64_t hops = 0;
    NodeId parent = kNoNode;
    int parent_local = -1;
  };

  // The flood queues' slot of source `src`, interned on first sight with
  // an unreached label: bf_ is indexed by these slots.
  int SlotOf(NodeId src) {
    const int slot = bf_queues_.Intern(src);
    if (static_cast<std::size_t>(slot) == bf_.size()) bf_.emplace_back();
    return slot;
  }

  void OnBellman(NodeApi& api, const Delivery& d) {
    const auto src = static_cast<NodeId>(d.msg.fields[0]);
    const Weight nd = d.msg.fields[1] + api.EdgeWeight(d.from_local);
    const std::int64_t nh = d.msg.fields[2] + 1;
    const int slot = SlotOf(src);
    BfLabel& cur = bf_[static_cast<std::size_t>(slot)];
    const bool better =
        nd < cur.dist || (nd == cur.dist && nh < cur.hops) ||
        (nd == cur.dist && nh == cur.hops && d.from_node < cur.parent);
    if (!better) return;
    const bool repropagate = nd < cur.dist || nh != cur.hops;
    cur.dist = nd;
    cur.hops = nh;
    cur.parent = d.from_node;
    cur.parent_local = d.from_local;
    // A parent-only refinement leaves the (dist, hops) the neighbors depend
    // on unchanged; only genuine improvements are re-propagated.
    if (repropagate) bf_queues_.EnqueueAll(slot, d.from_local);
  }

  void TickBellman(NodeApi& api) {
    if (!bf_queues_.HasPending()) return;
    for (int e = 0; e < api.Degree(); ++e) {
      if (bf_queues_.Empty(e)) continue;
      bf_queues_.PopInto(e, kBfPerRound, pop_scratch_);
      for (const int slot : pop_scratch_) {
        // Always the freshest label.
        const BfLabel& lab = bf_[static_cast<std::size_t>(slot)];
        api.Send(e, Message{kChBellman,
                            {bf_queues_.KeyOf(slot), lab.dist, lab.hops}});
      }
    }
  }

  // One hop of a merge-path walk: report the parent edge toward `src`, mark
  // it, and pass the token on.
  void WalkStep(NodeApi& api, NodeId src) {
    const int slot = bf_queues_.Find(src);
    DSF_CHECK_MSG(
        slot >= 0 && bf_[static_cast<std::size_t>(slot)].parent_local >= 0,
        "merge walk reached a node without a converged label");
    const BfLabel& lab = bf_[static_cast<std::size_t>(slot)];
    path_pipe_.Seed({lab.hops, api.GlobalEdgeId(lab.parent_local), lab.parent,
                     Id()});
    api.MarkEdge(lab.parent_local);
    api.Send(lab.parent_local, Message{kChToken, {src}});
  }

  // --- coordinator ---------------------------------------------------------

  void DriveCoordinator(NodeApi& api) {
    switch (stage_) {
      case Stage::kGather:
        // The convergecast DONE markers guarantee the detector has seen app
        // traffic, so Quiet() certifies Bellman-Ford convergence too.
        if (term_pipe_.Complete() && GloballyQuiet(api)) {
          stage_ = Stage::kDistances;
          // Distributed minimization (Lemma 2.4): labels with a single
          // terminal are broadcast for dropping before distances are
          // reported; the schedule runs on the minimal instance.
          const std::set<Label> drop = detail::SingletonLabels(term_items_);
          for (const Label lab : drop) {
            BroadcastCtrl(Message{
                kChCtrl, {kOpDropLabel, static_cast<std::int64_t>(lab)}});
          }
          std::erase_if(term_items_, [&](const auto& item) {
            return drop.contains(static_cast<Label>(item[1]));
          });
          BroadcastCtrl(Message{kChCtrl, {kOpReportDistances}});
        }
        break;
      case Stage::kDistances:
        if (dist_pipe_.Complete()) {
          BuildScheduleAndStart(api);
        }
        break;
      case Stage::kWalks:
        while (merge_idx_ < schedule.merge_pairs.size() &&
               path_items_.size() - consumed_items_ >= expected_items_) {
          ConsumeWalk();
          ++merge_idx_;
          if (merge_idx_ < schedule.merge_pairs.size()) {
            StartWalk(api);
          } else {
            stage_ = Stage::kDone;
            Finish();
          }
        }
        break;
      case Stage::kDone:
        break;
    }
  }

  void BuildScheduleAndStart(NodeApi& api) {
    // Terminal order must match IcInstance::Terminals(): increasing node id.
    std::sort(term_items_.begin(), term_items_.end());
    std::vector<NodeId> terminals;
    std::vector<Label> labels;
    std::map<NodeId, int> index_of;
    for (const auto& item : term_items_) {
      index_of[static_cast<NodeId>(item[0])] =
          static_cast<int>(terminals.size());
      terminals.push_back(static_cast<NodeId>(item[0]));
      labels.push_back(static_cast<Label>(item[1]));
    }
    terminals_ = terminals;
    const auto t = terminals.size();
    std::vector<std::vector<Weight>> dist(t, std::vector<Weight>(t, kInfWeight));
    hops_.assign(t, std::vector<std::int64_t>(t, -1));
    for (const auto& item : dist_items_) {
      const int j = index_of.at(static_cast<NodeId>(item[0]));  // reporter
      // Dropped (singleton-label) terminals still acted as Bellman-Ford
      // sources; their columns are not part of the minimal instance.
      const auto src_it = index_of.find(static_cast<NodeId>(item[1]));
      if (src_it == index_of.end()) continue;
      const int i = src_it->second;
      dist[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = item[2];
      hops_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = item[3];
    }
    MoatOptions opts;
    opts.epsilon = epsilon_;
    schedule = ComputeMoatSchedule(terminals, labels, dist, opts);
    api.NotePhases(schedule.merge_phases);
    forest_uf_ = std::make_unique<UnionFind>(api.Known().n);
    merge_idx_ = 0;
    if (schedule.merge_pairs.empty()) {
      stage_ = Stage::kDone;
      Finish();
    } else {
      stage_ = Stage::kWalks;
      StartWalk(api);
    }
  }

  void StartWalk(NodeApi& api) {
    (void)api;
    const auto [src_idx, dst_idx] = schedule.merge_pairs[merge_idx_];
    const NodeId src = terminals_[static_cast<std::size_t>(src_idx)];
    const NodeId dst = terminals_[static_cast<std::size_t>(dst_idx)];
    expected_items_ = static_cast<std::size_t>(
        hops_[static_cast<std::size_t>(src_idx)][static_cast<std::size_t>(dst_idx)]);
    DSF_CHECK(expected_items_ >= 1);
    BroadcastCtrl(Message{kChCtrl, {kOpWalk, src, dst}});
  }

  // Replays the centralized cycle-dropping (Algorithm 1 lines 17-19) over
  // this walk's reported edges in source-to-target order.
  void ConsumeWalk() {
    std::vector<std::vector<std::int64_t>> slice(
        path_items_.begin() + static_cast<std::ptrdiff_t>(consumed_items_),
        path_items_.begin() +
            static_cast<std::ptrdiff_t>(consumed_items_ + expected_items_));
    consumed_items_ += expected_items_;
    std::sort(slice.begin(), slice.end());  // field 0 = position on the path
    for (const auto& item : slice) {
      const auto u = static_cast<int>(item[2]);
      const auto v = static_cast<int>(item[3]);
      if (forest_uf_->Union(u, v)) {
        raw_edges.push_back(static_cast<EdgeId>(item[1]));
      }
    }
  }

  enum class Stage { kGather, kDistances, kWalks, kDone };

  Label label_;
  Real epsilon_;

  std::vector<BfLabel> bf_;  // indexed by bf_queues_' slot of the source
  KeyedEdgeQueues bf_queues_;
  std::vector<int> pop_scratch_;  // reused by TickBellman

  CollectPipeline term_pipe_;
  CollectPipeline dist_pipe_;
  CollectPipeline path_pipe_;  // long-lived: never marked done

  // Coordinator state.
  Stage stage_ = Stage::kGather;
  std::vector<std::vector<std::int64_t>> term_items_;
  std::vector<std::vector<std::int64_t>> dist_items_;
  std::vector<std::vector<std::int64_t>> path_items_;
  std::vector<NodeId> terminals_;
  std::vector<std::vector<std::int64_t>> hops_;
  std::unique_ptr<UnionFind> forest_uf_;
  std::size_t merge_idx_ = 0;
  std::size_t expected_items_ = 0;
  std::size_t consumed_items_ = 0;
};

}  // namespace

DetMoatResult RunDistributedMoat(const Graph& g, const IcInstance& ic,
                                 const DetMoatOptions& options,
                                 std::uint64_t seed) {
  DSF_CHECK(ic.NumNodes() == g.NumNodes());
  DSF_CHECK(options.epsilon >= 0.0L);
  const StaticKnowledge known = detail::KnownOrThrow(g);
  // Minimization happens inside the protocol (the root broadcasts singleton
  // labels for dropping); nodes start from their raw input labels so the
  // label information really crosses the network — the Section 3 lower-bound
  // harness meters exactly this traffic.
  const long t = ic.NumTerminals();

  DetMoatResult result;
  if (t == 0) return result;

  Network net(g, known, seed, options.net);
  if (!options.metered_cut.empty()) net.RegisterCut(options.metered_cut);
  net.Start([&](NodeId v) {
    return std::make_unique<DetMoatProgram>(v, ic.LabelOf(v),
                                            options.epsilon);
  });
  // A watchdog, not a schedule: the protocol never reads s, so the bound
  // s <= n - 1 stands in for it. The limit grows with s, so it is never
  // below the one the exact s would give.
  const long s = g.NumNodes() - 1;
  const long d = known.diameter_bound;
  const long limit = 20000 + 40 * (d + 4) + 8 * (s + 4) * (t + 4) +
                     4 * t * t + 8 * (t + 2) * (s + d + 8);
  result.stats = net.Run(limit);
  DSF_CHECK_MSG(!result.stats.hit_round_limit,
                "distributed moat growing exceeded the round budget");

  auto& root =
      dynamic_cast<DetMoatProgram&>(net.ProgramAt(g.NumNodes() - 1));
  result.raw_forest = root.raw_edges;
  result.merges = root.schedule.merges;
  result.dual_sum = root.schedule.dual_sum;
  result.phases = root.schedule.merge_phases;
  // A cancelled run holds a partial (possibly infeasible) mark set; hand it
  // back raw — the pipeline reports `cancelled` and validation decides.
  if (result.stats.cancelled) {
    result.forest = root.raw_edges;
    return result;
  }
  // Minimal-subforest extraction: centralized substitute for the token
  // routing of Appendix F.3 (DESIGN.md §7).
  result.forest = MinimalFeasibleSubforest(g, MakeMinimal(ic), root.raw_edges);
  return result;
}

}  // namespace dsf
