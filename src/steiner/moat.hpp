// Moat growing (Agrawal–Klein–Ravi primal-dual), Algorithms 1 and 2 of the
// paper (Appendix C / D), plus the shared bookkeeping (`MoatBook`) and the
// shared event-selection engine (`ComputeMoatSchedule`) that both the
// centralized reference and the distributed protocol in dist/det_moat.*
// drive — keeping the two in lockstep is what makes the merge-by-merge
// equivalence tests meaningful.
//
// Arithmetic: moat radii live on a fixed-point grid of 2^-12 weight units
// (type `Fixed`). Event times of Algorithm 1 are dyadic rationals whose
// denominators can deepen by one bit per merge; quantizing the half-step
// µ' = (wd - rad_v - rad_w)/2 to the grid (rounding up) keeps all arithmetic
// exact in int64, makes the centralized and distributed implementations
// bit-identical, and perturbs event times by < 2^-12 per merge — an error
// that is orders of magnitude below the unit minimum edge weight and hence
// immaterial to the approximation guarantee (verified against exact optima
// in tests).
#pragma once

#include <span>
#include <vector>

#include "common/cancel.hpp"
#include "common/ids.hpp"
#include "graph/graph.hpp"
#include "steiner/instance.hpp"

namespace dsf {

// ---------------------------------------------------------------------------
// Fixed-point scalar.
// ---------------------------------------------------------------------------

using Fixed = std::int64_t;
inline constexpr int kFixedShift = 12;
inline constexpr Fixed kFixedOne = Fixed{1} << kFixedShift;

[[nodiscard]] constexpr Fixed ToFixed(Weight w) noexcept {
  return static_cast<Fixed>(w) << kFixedShift;
}
[[nodiscard]] constexpr Real FixedToReal(Fixed f) noexcept {
  return static_cast<Real>(f) / static_cast<Real>(kFixedOne);
}
// Half of x, rounded up onto the grid (deterministic in both implementations).
[[nodiscard]] constexpr Fixed HalfUp(Fixed x) noexcept { return (x + 1) >> 1; }

// ---------------------------------------------------------------------------
// Merge records and shared moat bookkeeping.
// ---------------------------------------------------------------------------

// One merge step of Algorithm 1/2: the moats of terminals v and w are joined
// after the active moats have grown by µ (Fixed units) since the previous
// merge. `both_active` distinguishes µ'-type (2µ closes the gap) from
// µ''-type (only v's side grows) merges.
struct MergeRecord {
  NodeId v = kNoNode;       // terminal on the (always) active side
  NodeId w = kNoNode;       // other terminal
  Fixed mu = 0;             // growth increment that triggered the merge
  bool both_active = false;
  int phase = 0;            // merge-phase index (Definition 4.3 / 4.19)
  EdgeId via_edge = kNoEdge;  // witnessing boundary edge (distributed only)
};

enum class MoatMode {
  kExact,    // Algorithm 1: deactivation immediately upon satisfaction
  kRounded,  // Algorithm 2: deactivation only at µ̂ checkpoints
};

// Bookkeeping of moats, component labels, radii, and activity, exactly as in
// Algorithm 1 lines 1-5 and 20-33 (and Algorithm 2's checkpoint variant).
// Both the centralized solver and every node of the distributed protocol run
// an identical MoatBook fed with the same merge sequence.
class MoatBook {
 public:
  MoatBook(std::span<const NodeId> terminals, std::span<const Label> labels,
           MoatMode mode);

  [[nodiscard]] int NumTerminals() const noexcept {
    return static_cast<int>(terminals_.size());
  }
  [[nodiscard]] NodeId TerminalAt(int i) const {
    return terminals_[static_cast<std::size_t>(i)];
  }
  // Index of a terminal in the book's order, or -1.
  [[nodiscard]] int IndexOf(NodeId v) const;

  [[nodiscard]] bool ActiveTerminal(int idx) const;
  [[nodiscard]] Fixed RadOf(int idx) const {
    return rad_[static_cast<std::size_t>(idx)];
  }
  [[nodiscard]] int MoatOf(int idx) const;  // canonical moat representative
  [[nodiscard]] int NumActiveMoats() const;
  [[nodiscard]] bool AnyActive() const { return NumActiveMoats() > 0; }

  struct ApplyResult {
    bool activity_changed = false;    // some terminal's act flipped (Def 4.3)
    bool involved_inactive = false;   // one side was inactive (Def 4.19)
    bool became_inactive = false;     // merged moat satisfied (kExact only)
  };

  // Grows all active moats by µ, then merges the moats of terminal indices
  // iv and iw (must be distinct moats). `phase` and `via_edge` are recorded
  // in the merge log verbatim.
  ApplyResult GrowAndMerge(Fixed mu, int iv, int iw, int phase,
                           EdgeId via_edge = kNoEdge);

  // Algorithm 2 checkpoint: grows active moats by µ (the residual up to µ̂),
  // then deactivates every satisfied moat. Returns #deactivated.
  int GrowAndCheckpoint(Fixed mu);

  [[nodiscard]] Fixed TotalGrowth() const noexcept { return total_growth_; }
  // Σ_i act_i µ_i — the dual lower bound of Lemma C.4: any feasible solution
  // weighs at least this (Algorithm 1) / this divided by 1 + ε/2 (Alg. 2).
  [[nodiscard]] Fixed DualSum() const noexcept { return dual_sum_; }

  [[nodiscard]] const std::vector<MergeRecord>& Merges() const noexcept {
    return merges_;
  }

 private:
  void RecomputeActivity(int moat_root);
  [[nodiscard]] bool Satisfied(int moat_root) const;

  MoatMode mode_;
  std::vector<NodeId> terminals_;
  std::vector<Label> labels_;  // per terminal index (original labels)

  // Moat partition (union-find over terminal indices).
  mutable std::vector<int> moat_parent_;
  std::vector<int> moat_size_;

  // Label-class partition (classes merge when moats merge, Alg. 1 l. 21-27).
  mutable std::vector<int> class_parent_;  // over terminal indices as class seeds
  std::vector<int> class_total_;           // #terminals whose label is in class

  std::vector<int> moat_class_;   // class root per moat root
  std::vector<char> moat_active_;  // per moat root
  std::vector<Fixed> rad_;         // per terminal
  std::vector<MergeRecord> merges_;
  Fixed total_growth_ = 0;
  Fixed dual_sum_ = 0;

  int FindMoat(int x) const;
  int FindClass(int x) const;
};

// ---------------------------------------------------------------------------
// Centralized algorithms.
// ---------------------------------------------------------------------------

struct MoatOptions {
  // ε of Algorithm 2; epsilon == 0 runs Algorithm 1 (exact events).
  Real epsilon = 0.0L;
  // Cooperative cancellation, polled per terminal Dijkstra and per merge
  // event. A cancelled run returns the partial (possibly infeasible)
  // forest with MoatResult::cancelled set. Borrowed; may be nullptr.
  const CancelToken* cancel = nullptr;
};

struct MoatResult {
  std::vector<EdgeId> forest;       // minimal feasible subforest (the output)
  std::vector<MergeRecord> merges;
  Fixed dual_sum = 0;      // lower bound on OPT (divide by 1+ε/2 for Alg. 2)
  int merge_phases = 0;    // jmax (Definition 4.3 / 4.19)
  int growth_phases = 0;   // gmax (Algorithm 2 only; 0 for Algorithm 1)
  bool cancelled = false;  // stopped early by MoatOptions::cancel
};

// ---------------------------------------------------------------------------
// Shared selection engine.
// ---------------------------------------------------------------------------

// The full fixed-point schedule of Algorithm 1/2 given the terminal-terminal
// distance matrix: the ordered merge log, the (i, j) pair whose least-weight
// path realizes each merge, and the phase/checkpoint structure. This is the
// single place the event selection, µ̂ rounding, and tie-breaking live;
// `CentralizedMoatGrowing` drives it with Dijkstra distances, the distributed
// coordinator of dist/det_moat.* with distances convergecast from the
// network's Bellman-Ford labels. Merge-by-merge equality of the two
// implementations follows by construction.
struct MoatSchedule {
  std::vector<MergeRecord> merges;
  // Per merge: the (terminal-index) pair as selected, before the active-side
  // orientation swap — path edges come from index `first`'s shortest-path
  // tree toward index `second`'s terminal, in source-to-target order.
  std::vector<std::pair<int, int>> merge_pairs;
  Fixed dual_sum = 0;
  int merge_phases = 0;   // jmax (Definition 4.3 / 4.19)
  int growth_phases = 0;  // gmax (Algorithm 2 only; 0 for Algorithm 1)
};

// `dist[i][j]` must hold wd(terminals[i], terminals[j]) (kInfWeight when
// unreachable). The instance described by (terminals, labels) must be
// minimal; infeasible instances fail a DSF_CHECK.
MoatSchedule ComputeMoatSchedule(std::span<const NodeId> terminals,
                                 std::span<const Label> labels,
                                 const std::vector<std::vector<Weight>>& dist,
                                 const MoatOptions& options = {});

// Runs Algorithm 1 (options.epsilon == 0) or Algorithm 2 (> 0) on a minimal
// DSF-IC instance. Non-minimal instances are reduced via MakeMinimal first.
MoatResult CentralizedMoatGrowing(const Graph& g, const IcInstance& ic,
                                  const MoatOptions& options = {});

}  // namespace dsf
