// Randomized distributed Steiner Forest (Section 5, Theorem 5.2), plus a
// Khan et al.-style baseline that repeats the selection stage per component.
//
// Stage 1 (distributed): the LE-list embedding (dist/embedding.hpp) gives
// every node a virtual-tree ancestor per level. Terminals convergecast their
// ancestor chains; the coordinator picks, per input component, the lowest
// level at which the component's terminals agree on an ancestor (their
// super-terminal) and broadcasts it; each terminal then routes a token to
// its ancestor along the LE via-pointers, marking the traversed edges.
//
// Stage 2 (substituted): with truncated propagation (hop budget ~ √n, the
// regime s² > n) the clusters of a component may remain disconnected. The
// F-reduced instance on the per-component cluster representatives is then
// solved on a greedy metric spanner (GreedyMetricSpanner, see DESIGN.md
// "Substitutions") and the chosen spanner edges are realized as least-weight
// paths; the substituted work is charged to RunStats::charged_rounds.
//
// Repetitions re-run the pipeline on derived seeds and keep the lightest
// output (the paper's c·log n amplification).
#pragma once

#include <cstdint>
#include <vector>

#include "congest/network.hpp"
#include "steiner/instance.hpp"

namespace dsf {

struct RandomizedOptions {
  // Number of independent repetitions; the lightest forest wins.
  int repetitions = 1;
  // Edges whose traffic the simulator meters separately (Section 3 harness).
  std::vector<EdgeId> metered_cut;
  // Simulator scheduling (active-set / threads); every setting is
  // bit-identical, see DESIGN.md §2.
  NetworkOptions net;
};

struct RandomizedResult {
  std::vector<EdgeId> forest;
  bool truncated = false;     // hop-budgeted embedding + F-reduced stage 2
  int reduced_terminals = 0;  // super-terminals entering stage 2 (0 if none)
  long le_rounds = 0;         // rounds spent building the embedding
  RunStats stats;
};

// Runs the randomized algorithm; disconnected topologies throw
// std::logic_error. Deterministic given (instance, options, seed).
RandomizedResult RunRandomizedSteinerForest(const Graph& g,
                                            const IcInstance& ic,
                                            const RandomizedOptions& options = {},
                                            std::uint64_t seed = 1);

// Baseline: runs the full selection pipeline once per input component and
// unions the outputs — the per-component repetition our filtered single pass
// avoids (compare rounds). `net_opts` selects the simulator scheduling
// (bit-identical, DESIGN.md §2).
RandomizedResult RunKhanBaseline(const Graph& g, const IcInstance& ic,
                                 std::uint64_t seed = 1,
                                 const NetworkOptions& net_opts = {});

}  // namespace dsf
