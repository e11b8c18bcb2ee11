#include "steiner/moat.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "graph/shortest_paths.hpp"
#include "graph/union_find.hpp"
#include "steiner/prune.hpp"

namespace dsf {

// ---------------------------------------------------------------------------
// MoatBook
// ---------------------------------------------------------------------------

MoatBook::MoatBook(std::span<const NodeId> terminals,
                   std::span<const Label> labels, MoatMode mode)
    : mode_(mode),
      terminals_(terminals.begin(), terminals.end()),
      labels_(labels.begin(), labels.end()) {
  DSF_CHECK(terminals_.size() == labels_.size());
  const int t = NumTerminals();
  moat_parent_.resize(static_cast<std::size_t>(t));
  class_parent_.resize(static_cast<std::size_t>(t));
  for (int i = 0; i < t; ++i) {
    moat_parent_[static_cast<std::size_t>(i)] = i;
    class_parent_[static_cast<std::size_t>(i)] = i;
  }
  moat_size_.assign(static_cast<std::size_t>(t), 1);
  class_total_.assign(static_cast<std::size_t>(t), 1);
  moat_class_.resize(static_cast<std::size_t>(t));
  moat_active_.assign(static_cast<std::size_t>(t), 1);
  rad_.assign(static_cast<std::size_t>(t), 0);

  // Terminals sharing an input label start in the same label class.
  std::map<Label, int> first_with_label;
  for (int i = 0; i < t; ++i) {
    DSF_CHECK(labels_[static_cast<std::size_t>(i)] != kNoLabel);
    auto [it, inserted] =
        first_with_label.try_emplace(labels_[static_cast<std::size_t>(i)], i);
    if (!inserted) {
      const int a = FindClass(it->second);
      const int b = FindClass(i);
      if (a != b) {
        class_parent_[static_cast<std::size_t>(b)] = a;
        class_total_[static_cast<std::size_t>(a)] +=
            class_total_[static_cast<std::size_t>(b)];
      }
    }
  }
  for (int i = 0; i < t; ++i) {
    moat_class_[static_cast<std::size_t>(i)] = FindClass(i);
    // A singleton class is satisfied from the start (non-minimal instance);
    // its moat never activates.
    moat_active_[static_cast<std::size_t>(i)] = Satisfied(i) ? 0 : 1;
  }
}

int MoatBook::FindMoat(int x) const {
  while (moat_parent_[static_cast<std::size_t>(x)] != x) {
    const int p = moat_parent_[static_cast<std::size_t>(x)];
    moat_parent_[static_cast<std::size_t>(x)] =
        moat_parent_[static_cast<std::size_t>(p)];
    x = moat_parent_[static_cast<std::size_t>(x)];
  }
  return x;
}

int MoatBook::FindClass(int x) const {
  while (class_parent_[static_cast<std::size_t>(x)] != x) {
    const int p = class_parent_[static_cast<std::size_t>(x)];
    class_parent_[static_cast<std::size_t>(x)] =
        class_parent_[static_cast<std::size_t>(p)];
    x = class_parent_[static_cast<std::size_t>(x)];
  }
  return x;
}

int MoatBook::IndexOf(NodeId v) const {
  for (int i = 0; i < NumTerminals(); ++i) {
    if (terminals_[static_cast<std::size_t>(i)] == v) return i;
  }
  return -1;
}

bool MoatBook::ActiveTerminal(int idx) const {
  return moat_active_[static_cast<std::size_t>(FindMoat(idx))] != 0;
}

int MoatBook::MoatOf(int idx) const { return FindMoat(idx); }

int MoatBook::NumActiveMoats() const {
  int count = 0;
  for (int i = 0; i < NumTerminals(); ++i) {
    if (FindMoat(i) == i && moat_active_[static_cast<std::size_t>(i)] != 0) {
      ++count;
    }
  }
  return count;
}

bool MoatBook::Satisfied(int moat_root) const {
  const int cls = FindClass(moat_class_[static_cast<std::size_t>(moat_root)]);
  return moat_size_[static_cast<std::size_t>(moat_root)] ==
         class_total_[static_cast<std::size_t>(cls)];
}

MoatBook::ApplyResult MoatBook::GrowAndMerge(Fixed mu, int iv, int iw,
                                             int phase, EdgeId via_edge) {
  DSF_CHECK(mu >= 0);
  // Growth (Algorithm 1 lines 15-16): all terminals in active moats grow.
  dual_sum_ += static_cast<Fixed>(NumActiveMoats()) * mu;
  total_growth_ += mu;
  for (int i = 0; i < NumTerminals(); ++i) {
    if (ActiveTerminal(i)) rad_[static_cast<std::size_t>(i)] += mu;
  }

  const int mv = FindMoat(iv);
  const int mw = FindMoat(iw);
  DSF_CHECK_MSG(mv != mw, "merge within a single moat");
  const bool act_v = moat_active_[static_cast<std::size_t>(mv)] != 0;
  const bool act_w = moat_active_[static_cast<std::size_t>(mw)] != 0;
  DSF_CHECK_MSG(act_v || act_w, "merge between two inactive moats");

  // Merge moats (union by size, keep bookkeeping on the new root).
  int root = mv;
  int child = mw;
  if (moat_size_[static_cast<std::size_t>(root)] <
      moat_size_[static_cast<std::size_t>(child)]) {
    std::swap(root, child);
  }
  moat_parent_[static_cast<std::size_t>(child)] = root;
  moat_size_[static_cast<std::size_t>(root)] +=
      moat_size_[static_cast<std::size_t>(child)];

  // Merge label classes (Algorithm 1 lines 21-27).
  const int cv = FindClass(moat_class_[static_cast<std::size_t>(mv)]);
  const int cw = FindClass(moat_class_[static_cast<std::size_t>(mw)]);
  if (cv != cw) {
    class_parent_[static_cast<std::size_t>(cw)] = cv;
    class_total_[static_cast<std::size_t>(cv)] +=
        class_total_[static_cast<std::size_t>(cw)];
  }
  moat_class_[static_cast<std::size_t>(root)] = FindClass(cv);

  // Activity of the merged moat: Algorithm 1 lines 28-31 deactivate when the
  // component is satisfied; Algorithm 2 line 33 keeps merged moats active
  // until the next checkpoint.
  bool new_active = true;
  if (mode_ == MoatMode::kExact && Satisfied(root)) new_active = false;
  moat_active_[static_cast<std::size_t>(root)] = new_active ? 1 : 0;

  MergeRecord rec;
  rec.v = act_v ? terminals_[static_cast<std::size_t>(iv)]
                : terminals_[static_cast<std::size_t>(iw)];
  rec.w = act_v ? terminals_[static_cast<std::size_t>(iw)]
                : terminals_[static_cast<std::size_t>(iv)];
  rec.mu = mu;
  rec.both_active = act_v && act_w;
  rec.phase = phase;
  rec.via_edge = via_edge;
  merges_.push_back(rec);

  ApplyResult result;
  result.involved_inactive = !(act_v && act_w);
  result.became_inactive = !new_active;
  result.activity_changed = (new_active != act_v) || (new_active != act_w);
  return result;
}

int MoatBook::GrowAndCheckpoint(Fixed mu) {
  DSF_CHECK(mu >= 0);
  DSF_CHECK(mode_ == MoatMode::kRounded);
  dual_sum_ += static_cast<Fixed>(NumActiveMoats()) * mu;
  total_growth_ += mu;
  for (int i = 0; i < NumTerminals(); ++i) {
    if (ActiveTerminal(i)) rad_[static_cast<std::size_t>(i)] += mu;
  }
  int deactivated = 0;
  for (int i = 0; i < NumTerminals(); ++i) {
    if (FindMoat(i) != i) continue;
    if (moat_active_[static_cast<std::size_t>(i)] != 0 && Satisfied(i)) {
      moat_active_[static_cast<std::size_t>(i)] = 0;
      ++deactivated;
    }
  }
  return deactivated;
}

// ---------------------------------------------------------------------------
// Shared selection engine (Algorithm 1 / Algorithm 2 event loop)
// ---------------------------------------------------------------------------

MoatSchedule ComputeMoatSchedule(std::span<const NodeId> terminals,
                                 std::span<const Label> labels,
                                 const std::vector<std::vector<Weight>>& dist,
                                 const MoatOptions& options) {
  DSF_CHECK(options.epsilon >= 0.0L);
  DSF_CHECK(terminals.size() == labels.size());
  DSF_CHECK(dist.size() == terminals.size());
  const int t = static_cast<int>(terminals.size());

  MoatSchedule schedule;
  if (t == 0) return schedule;

  const bool rounded = options.epsilon > 0.0L;
  MoatBook book(terminals, labels,
                rounded ? MoatMode::kRounded : MoatMode::kExact);

  Fixed muhat = kFixedOne;  // µ̂ := 1 (Algorithm 2 line 8)
  int phase = 0;
  int growth_phases = 0;

  const long merge_budget = 4L * t + 64;
  long iterations = 0;
  while (book.AnyActive()) {
    DSF_CHECK_MSG(++iterations < 16L * merge_budget,
                  "moat growing failed to terminate");
    // Merge events are the engine's phase boundaries — the cancellation
    // checkpoints of the (2+ε) solver. A partial schedule realizes a
    // partial forest; the caller reports it cancelled.
    if (IsCancelled(options.cancel)) break;
    // Find the minimal growth µ at which two moats meet (lines 10-14).
    Fixed best_mu = -1;
    int best_i = -1;
    int best_j = -1;
    for (int i = 0; i < t; ++i) {
      for (int j = i + 1; j < t; ++j) {
        if (book.MoatOf(i) == book.MoatOf(j)) continue;
        const bool ai = book.ActiveTerminal(i);
        const bool aj = book.ActiveTerminal(j);
        if (!ai && !aj) continue;
        const Weight d =
            dist[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
        if (d >= kInfWeight) continue;
        const Fixed slack =
            std::max<Fixed>(0, ToFixed(d) - book.RadOf(i) - book.RadOf(j));
        const Fixed mu = (ai && aj) ? HalfUp(slack) : slack;
        if (best_mu < 0 || mu < best_mu) {
          best_mu = mu;
          best_i = i;
          best_j = j;
        }
      }
    }
    if (best_mu < 0 && rounded) {
      // No pair of distinct moats is left to merge (e.g. everything already
      // merged into satisfied-but-still-active moats): Algorithm 2 keeps
      // growing to the next checkpoint, where deactivation happens.
      const int deactivated =
          book.GrowAndCheckpoint(std::max<Fixed>(0, muhat - book.TotalGrowth()));
      ++growth_phases;
      ++phase;
      const Fixed by_ratio = static_cast<Fixed>(std::ceil(
          static_cast<Real>(muhat) * (1.0L + options.epsilon / 2.0L)));
      muhat = std::max(muhat + 1, by_ratio);
      DSF_CHECK_MSG(deactivated > 0 || !book.AnyActive(),
                    "active moats remain but no merge is possible — "
                    "infeasible instance");
      continue;
    }
    DSF_CHECK_MSG(best_mu >= 0,
                  "active moats remain but no merge is possible — infeasible "
                  "instance (terminals of one component in different graph "
                  "components)");

    if (rounded && book.TotalGrowth() + best_mu >= muhat) {
      // Algorithm 2 lines 16-26: stop growth at µ̂ and re-check activity.
      book.GrowAndCheckpoint(muhat - book.TotalGrowth());
      ++growth_phases;
      ++phase;
      const Fixed by_ratio = static_cast<Fixed>(std::ceil(
          static_cast<Real>(muhat) * (1.0L + options.epsilon / 2.0L)));
      muhat = std::max(muhat + 1, by_ratio);
      continue;
    }

    // Orient so the recorded v-side is active (µ''-type bookkeeping).
    int iv = best_i;
    int iw = best_j;
    if (!book.ActiveTerminal(iv)) std::swap(iv, iw);
    const auto applied = book.GrowAndMerge(best_mu, iv, iw, phase);
    schedule.merge_pairs.push_back({best_i, best_j});

    const bool phase_boundary = rounded
                                    ? applied.involved_inactive
                                    : applied.activity_changed;
    if (phase_boundary) ++phase;
  }

  schedule.merges = book.Merges();
  schedule.dual_sum = book.DualSum();
  schedule.merge_phases = phase;
  schedule.growth_phases = growth_phases;
  return schedule;
}

// ---------------------------------------------------------------------------
// Centralized Algorithm 1 / Algorithm 2
// ---------------------------------------------------------------------------

MoatResult CentralizedMoatGrowing(const Graph& g, const IcInstance& ic,
                                  const MoatOptions& options) {
  DSF_CHECK(ic.NumNodes() == g.NumNodes());
  const IcInstance inst = MakeMinimal(ic);
  const std::vector<NodeId> terminals = inst.Terminals();
  const int t = static_cast<int>(terminals.size());

  MoatResult result;
  if (t == 0) return result;

  std::vector<Label> labels;
  labels.reserve(static_cast<std::size_t>(t));
  for (const NodeId v : terminals) labels.push_back(inst.LabelOf(v));

  // Exact terminal-terminal distances and path trees.
  std::vector<ShortestPathTree> trees;
  trees.reserve(static_cast<std::size_t>(t));
  for (const NodeId v : terminals) {
    if (IsCancelled(options.cancel)) {
      result.cancelled = true;
      return result;
    }
    // Cancellable: a loser stops mid-scan; the partial tree is harmless
    // because ComputeMoatSchedule breaks before consuming any distance and
    // the result is reported cancelled below.
    trees.push_back(Dijkstra(g, v, options.cancel));
  }

  std::vector<std::vector<Weight>> dist(
      static_cast<std::size_t>(t),
      std::vector<Weight>(static_cast<std::size_t>(t), 0));
  for (int i = 0; i < t; ++i) {
    for (int j = 0; j < t; ++j) {
      dist[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          trees[static_cast<std::size_t>(i)]
              .dist[static_cast<std::size_t>(terminals[static_cast<std::size_t>(j)])];
    }
  }

  const MoatSchedule schedule =
      ComputeMoatSchedule(terminals, labels, dist, options);

  // Materialize the merge paths: add each least-weight path's edges, dropping
  // those closing cycles (Algorithm 1 lines 17-19).
  UnionFind forest_uf(g.NumNodes());
  std::vector<EdgeId> raw;
  for (const auto& [src, dst] : schedule.merge_pairs) {
    const NodeId target = terminals[static_cast<std::size_t>(dst)];
    for (const EdgeId e :
         trees[static_cast<std::size_t>(src)].PathTo(target)) {
      const auto& edge = g.GetEdge(e);
      if (forest_uf.Union(edge.u, edge.v)) raw.push_back(e);
    }
  }

  result.merges = schedule.merges;
  result.dual_sum = schedule.dual_sum;
  result.merge_phases = schedule.merge_phases;
  result.growth_phases = schedule.growth_phases;
  result.cancelled = IsCancelled(options.cancel);
  if (result.cancelled) {
    // The schedule may be partial; hand the raw forest back unpruned.
    result.forest = raw;
    return result;
  }
  result.forest = MinimalFeasibleSubforest(g, inst, raw);
  return result;
}

}  // namespace dsf
