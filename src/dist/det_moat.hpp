// Distributed deterministic moat growing (Section 4.1 / Theorem 4.17).
//
// The protocol emulates Algorithm 1 (epsilon == 0) / Algorithm 2 (> 0)
// exactly, merge by merge:
//
//   1. Terminals announce (id, label) over a pipelined convergecast
//      (Lemma 2.3 machinery) while a multi-source Bellman-Ford computes, at
//      every node and for every terminal source, the canonical least-weight
//      label (dist, hops, parent) with the *same* deterministic tie-breaking
//      as the centralized Dijkstra — ties toward fewer hops, then smaller
//      predecessor id — so the distributed shortest-path forest is the
//      centralized one.
//   2. Once the quiescence detector certifies convergence, terminals
//      convergecast their t distance/hop labels; the coordinator now holds
//      the exact terminal-terminal metric and replays the shared event
//      engine (`ComputeMoatSchedule`, steiner/moat.hpp) — the identical code
//      path the centralized reference runs, hence an identical merge log,
//      dual sum, and phase structure.
//   3. Each scheduled merge is realized by a token walk along the stored
//      Bellman-Ford parent pointers from the merge target back to the merge
//      source; walked nodes report their path edge up the BFS tree and the
//      coordinator replays the centralized cycle-dropping union-find over
//      the reported edges in source-to-target order.
//
// The final minimal-subforest extraction (Algorithm 1 line 34, Appendix F.3)
// is substituted by the centralized pruner and documented in DESIGN.md §7.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/network.hpp"
#include "steiner/instance.hpp"
#include "steiner/moat.hpp"

namespace dsf {

struct DetMoatOptions {
  // ε of Algorithm 2; epsilon == 0 runs Algorithm 1 (exact events).
  Real epsilon = 0.0L;
  // Edges whose traffic the simulator meters separately (lower-bound
  // harness, Section 3).
  std::vector<EdgeId> metered_cut;
  // Simulator scheduling (active-set / threads); every setting is
  // bit-identical, see DESIGN.md §2.
  NetworkOptions net;
};

struct DetMoatResult {
  std::vector<EdgeId> forest;      // minimal feasible subforest (the output)
  std::vector<EdgeId> raw_forest;  // F_imax before final pruning
  std::vector<MergeRecord> merges;
  Fixed dual_sum = 0;  // lower bound on OPT (Lemma C.4)
  int phases = 0;      // merge phases (Definition 4.3 / 4.19)
  RunStats stats;
};

// Runs the distributed protocol on the CONGEST simulator. Non-minimal
// instances are reduced via MakeMinimal first; disconnected topologies throw
// std::logic_error. The result is merge-by-merge identical to
// CentralizedMoatGrowing on the same instance.
DetMoatResult RunDistributedMoat(const Graph& g, const IcInstance& ic,
                                 const DetMoatOptions& options = {},
                                 std::uint64_t seed = 1);

}  // namespace dsf
