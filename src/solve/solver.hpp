// Unified solver engine: every algorithm family in the repo — the exact
// references, the centralized primal-dual, and the paper's distributed
// protocols — sits behind one `Solver` interface, reachable by name through
// the static `SolverRegistry`:
//
//   exact         partition DP + Dreyfus–Wagner (ground truth, small instances)
//   gw-moat       centralized moat growing (Agrawal–Klein–Ravi / GW primal-dual)
//   mst-prune     Kruskal MST pruned to the terminal components (baseline)
//   greedy-merge  gluttonous greedy (Gupta–Kumar, arXiv:1412.7693)
//   local-search  move-based local search (Groß et al., arXiv:1707.02753)
//   dist-det      distributed deterministic moat growing (Theorem 4.17)
//   dist-rand     distributed randomized tree embedding (Theorem 5.2)
//   dist-khan     per-component selection baseline (Khan et al. style)
//   portfolio     races a roster of the above per unit, returns the cheapest
//                 feasible forest (spec syntax: solve/solver_spec.hpp)
//
// A `SolveRequest` flows through the shared pipeline (`Solve`): the
// distributed CR→IC transform when the input is given as connection
// requests (Lemma 2.3), `MakeMinimal` (Lemma 2.4), the solver core, optional
// minimal-subforest pruning, `IsFeasible` validation, the warm-start
// incumbent rule, and cost / round / message accounting — yielding a
// uniform `SolveResult`. The per-request
// plumbing previously hand-rolled by every example, bench, and test lives
// here exactly once (DESIGN.md §3).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "graph/graph.hpp"
#include "steiner/instance.hpp"
#include "steiner/moat.hpp"

namespace dsf {

// Knobs understood by the pipeline and forwarded to the solver cores; each
// solver reads the subset that applies to it and ignores the rest.
struct SolveOptions {
  // ε of Algorithm 2 (gw-moat, dist-det); 0 runs the exact-event Algorithm 1.
  Real epsilon = 0.0L;
  // Independent repetitions of dist-rand (the paper's c·log n amplification).
  int repetitions = 1;
  // Reduce the output to its unique minimal feasible subforest. Idempotent
  // for solvers that already prune (moat growing, exact).
  bool prune = true;
  // Check feasibility of the output (SolveResult::feasible / validated).
  bool validate = true;
  // Solve the instance exactly as well and report the approximation ratio.
  // Subject to the exact solver's hard limits — small instances only.
  bool compute_reference = false;
  // Simulator scheduling for the distributed solvers (active-set / threads);
  // every setting is bit-identical, see DESIGN.md §2. The portfolio also
  // reads net.threads as its racing width (members themselves run their
  // simulators single-threaded — no nested pools).
  NetworkOptions net;
  // Anytime deadline for the whole solve in wall milliseconds (0 = none):
  // the pipeline arms a CancelToken and the solver winds down at its next
  // checkpoint, returning its best partial output (SolveResult::cancelled).
  int deadline_ms = 0;
  // External cooperative cancellation (serve admission, portfolio racing).
  // Borrowed; must outlive the solve. Combined with deadline_ms when both
  // are set. May be nullptr.
  const CancelToken* cancel = nullptr;
  // Portfolio knobs, normally populated from a parsed `portfolio(...)`
  // spec (solve/solver_spec.hpp); ignored by every other solver. An empty
  // roster means the default (kDefaultPortfolioRoster).
  std::vector<std::string> roster;
  bool race_first = false;  // mode=first: cancel losers at first feasible
  // Warm start: a feasible forest for local-search to refine instead of
  // building the Kruskal-prune seed (the incremental/online hook). Empty =
  // cold start. For every solver it is also the incumbent: when the result
  // is infeasible or heavier than a warm start that checks out as a
  // feasible forest, the pipeline returns the warm start instead.
  std::vector<EdgeId> warm_start;
  // Refinement focus for a warm-started local-search: restrict improvement
  // attempts to forest edges near one of these nodes (see
  // LocalSearchOptions::focus). The incremental tier fills it with the
  // delta-touched region so a revise pays for the neighbourhood the delta
  // disturbed, not the whole forest. Ignored without a warm start; like
  // warm_start, never part of cache keys.
  std::vector<NodeId> focus;
  // Observed per-solver p50 latencies (name, ms), e.g. the serve tier's
  // latency rings. Read only by portfolio mode=first to start the
  // historically-fastest member first (width-starved racers decide the race
  // sooner); mode=all ignores them, and they are never part of cache keys —
  // hints change who wins a race, never what a feasible answer is.
  std::vector<std::pair<std::string, double>> latency_hints;
};

// One unit of work: a graph, an instance in either input form (Definition
// 2.1 / 2.2), options, and a seed. The graph is borrowed, not owned — it
// must outlive the request (batches share one topology across requests).
struct SolveRequest {
  // Registry name ("dist-det") or a parameterized spec
  // ("portfolio(roster=gw-moat+greedy-merge,mode=first)"); parsed and
  // canonicalized by the pipeline — see solve/solver_spec.hpp.
  std::string solver;
  const Graph* graph = nullptr; // finalized; must outlive the request
  IcInstance ic;                // used when !use_cr
  CrInstance cr;                // used when use_cr
  bool use_cr = false;
  SolveOptions options;
  std::uint64_t seed = 1;
};

// Uniform result of the pipeline.
struct SolveResult {
  std::string solver;
  std::vector<EdgeId> forest;    // edge ids, sorted
  Weight weight = 0;
  bool validated = false;        // options.validate was on
  bool feasible = false;         // meaningful only when validated
  Weight reference_weight = -1;  // exact OPT when requested, else -1
  double approx_ratio = 0.0;     // weight / reference_weight (0 when none)
  Fixed dual_lower_bound = 0;    // Σ act·µ (Lemma C.4); moat solvers only
  int phases = 0;                // merge phases (moat solvers)
  RunStats stats;                // simulator accounting; zeros if centralized
  // Distributed CR→IC transform accounting (use_cr only), kept separate so
  // `stats` stays comparable across input forms.
  long transform_rounds = 0;
  long transform_messages = 0;
  long transform_bits = 0;
  double wall_ms = 0.0;          // solver core wall time (excl. validation)
  // The solve was stopped early by a deadline or cancellation; the forest
  // is the solver's best partial output (feasible iff `feasible` says so —
  // the anytime solvers keep a feasible incumbent, constructive ones may
  // not).
  bool cancelled = false;
};

// What a solver core hands back to the pipeline, before pruning /
// validation / reference accounting.
struct SolverOutput {
  std::vector<EdgeId> forest;
  RunStats stats;
  Fixed dual_sum = 0;
  int phases = 0;
  bool cancelled = false;  // core stopped at a cancellation checkpoint
};

// One algorithm family. Implementations are stateless singletons owned by
// the registry; `SolveMinimal` must be safe to call concurrently (the batch
// engine fans requests out across threads).
class Solver {
 public:
  virtual ~Solver() = default;
  [[nodiscard]] virtual std::string_view Name() const noexcept = 0;
  [[nodiscard]] virtual std::string_view Description() const noexcept = 0;
  // True when the core runs on the CONGEST simulator (stats are metered).
  [[nodiscard]] virtual bool Distributed() const noexcept = 0;
  // Core solve on a finalized graph and a *minimal* IC instance (the
  // pipeline guarantees both). Deterministic given (g, ic, options, seed).
  [[nodiscard]] virtual SolverOutput SolveMinimal(
      const Graph& g, const IcInstance& ic, const SolveOptions& options,
      std::uint64_t seed) const = 0;
};

// Static name -> solver table (no dynamic registration: the set of
// algorithm families is a compile-time property of the library).
class SolverRegistry {
 public:
  // nullptr when the name is unknown.
  [[nodiscard]] static const Solver* Find(std::string_view name) noexcept;
  // DSF_CHECK failure (listing the known names) when unknown.
  [[nodiscard]] static const Solver& Get(std::string_view name);
  // All registered names, in the canonical order above.
  [[nodiscard]] static std::vector<std::string_view> Names();
};

// Start order of a portfolio race given latency hints: hinted members by
// ascending p50, then unhinted members in roster (registry) order. With no
// hints this is the identity — the registry-order fallback. Exposed for
// tests; used by portfolio mode=first only (mode=all's result does not
// depend on start order).
std::vector<int> PortfolioStartOrder(
    std::span<const std::string> roster,
    std::span<const std::pair<std::string, double>> hints);

// The shared pipeline. Throws std::logic_error (via DSF_CHECK) on unknown
// solver names, non-finalized graphs, and disconnected topologies (which no
// distributed protocol can run on).
SolveResult Solve(const SolveRequest& request);

// Batch-engine entry: runs `request` with an overridden seed and simulator
// thread count without copying the request's instance data.
SolveResult Solve(const SolveRequest& request, std::uint64_t seed_override,
                  int net_threads_override);

// Convenience wrappers for the common call shapes.
SolveResult Solve(std::string_view solver, const Graph& g,
                  const IcInstance& ic, const SolveOptions& options = {},
                  std::uint64_t seed = 1);
SolveResult Solve(std::string_view solver, const Graph& g,
                  const CrInstance& cr, const SolveOptions& options = {},
                  std::uint64_t seed = 1);

}  // namespace dsf
