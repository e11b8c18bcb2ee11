#include "solve/solver.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <exception>
#include <numeric>
#include <sstream>
#include <thread>

#include "dist/det_moat.hpp"
#include "dist/randomized.hpp"
#include "dist/transform.hpp"
#include "solve/solver_spec.hpp"
#include "steiner/exact.hpp"
#include "steiner/greedy.hpp"
#include "steiner/local_search.hpp"
#include "steiner/mst.hpp"
#include "steiner/prune.hpp"
#include "steiner/validate.hpp"

namespace dsf {

namespace {

class ExactSolver final : public Solver {
 public:
  std::string_view Name() const noexcept override { return "exact"; }
  std::string_view Description() const noexcept override {
    return "exact optimum (partition DP + Dreyfus-Wagner); small instances";
  }
  bool Distributed() const noexcept override { return false; }
  SolverOutput SolveMinimal(const Graph& g, const IcInstance& ic,
                            const SolveOptions&,
                            std::uint64_t) const override {
    SolverOutput out;
    out.forest = ExactSteinerForest(g, ic).edges;
    return out;
  }
};

class GwMoatSolver final : public Solver {
 public:
  std::string_view Name() const noexcept override { return "gw-moat"; }
  std::string_view Description() const noexcept override {
    return "centralized moat growing, (2+eps)-approximation (Alg. 1/2)";
  }
  bool Distributed() const noexcept override { return false; }
  SolverOutput SolveMinimal(const Graph& g, const IcInstance& ic,
                            const SolveOptions& options,
                            std::uint64_t) const override {
    MoatOptions mopt;
    mopt.epsilon = options.epsilon;
    mopt.cancel = options.cancel;
    auto res = CentralizedMoatGrowing(g, ic, mopt);
    SolverOutput out;
    out.forest = std::move(res.forest);
    out.dual_sum = res.dual_sum;
    out.phases = res.merge_phases;
    out.cancelled = res.cancelled;
    return out;
  }
};

class MstPruneSolver final : public Solver {
 public:
  std::string_view Name() const noexcept override { return "mst-prune"; }
  std::string_view Description() const noexcept override {
    return "Kruskal MST pruned to the terminal components (baseline)";
  }
  bool Distributed() const noexcept override { return false; }
  SolverOutput SolveMinimal(const Graph& g, const IcInstance& ic,
                            const SolveOptions& options,
                            std::uint64_t) const override {
    SolverOutput out;
    std::vector<EdgeId> mst = KruskalMst(g, options.cancel);
    if (IsCancelled(options.cancel)) {
      out.forest = std::move(mst);
      out.cancelled = true;
      return out;
    }
    // The prune is the algorithm here, not post-processing: an unpruned MST
    // spans every node of the graph.
    out.forest = MinimalFeasibleSubforest(g, ic, mst);
    return out;
  }
};

class GreedyMergeSolver final : public Solver {
 public:
  std::string_view Name() const noexcept override { return "greedy-merge"; }
  std::string_view Description() const noexcept override {
    return "gluttonous greedy: merge the two closest active clusters "
           "(Gupta-Kumar)";
  }
  bool Distributed() const noexcept override { return false; }
  SolverOutput SolveMinimal(const Graph& g, const IcInstance& ic,
                            const SolveOptions& options,
                            std::uint64_t) const override {
    GreedyOptions gopt;
    gopt.cancel = options.cancel;
    auto res = GluttonousSteinerForest(g, ic, gopt);
    SolverOutput out;
    out.forest = std::move(res.forest);
    out.phases = res.merges;
    out.cancelled = res.cancelled;
    return out;
  }
};

class LocalSearchSolver final : public Solver {
 public:
  std::string_view Name() const noexcept override { return "local-search"; }
  std::string_view Description() const noexcept override {
    return "add/remove/swap local search over a feasible forest (Gross et "
           "al.); warm-startable";
  }
  bool Distributed() const noexcept override { return false; }
  SolverOutput SolveMinimal(const Graph& g, const IcInstance& ic,
                            const SolveOptions& options,
                            std::uint64_t) const override {
    LocalSearchOptions lopt;
    lopt.cancel = options.cancel;
    if (!options.warm_start.empty()) {
      lopt.warm_start = &options.warm_start;
      if (!options.focus.empty()) lopt.focus = &options.focus;
    }
    auto res = LocalSearchSteinerForest(g, ic, lopt);
    SolverOutput out;
    out.forest = std::move(res.forest);
    out.phases = res.passes;
    out.cancelled = res.cancelled;
    return out;
  }
};

class DistDetSolver final : public Solver {
 public:
  std::string_view Name() const noexcept override { return "dist-det"; }
  std::string_view Description() const noexcept override {
    return "distributed deterministic moat growing (Theorem 4.17)";
  }
  bool Distributed() const noexcept override { return true; }
  SolverOutput SolveMinimal(const Graph& g, const IcInstance& ic,
                            const SolveOptions& options,
                            std::uint64_t seed) const override {
    DetMoatOptions dopt;
    dopt.epsilon = options.epsilon;
    dopt.net = options.net;
    auto res = RunDistributedMoat(g, ic, dopt, seed);
    SolverOutput out;
    out.forest = std::move(res.forest);
    out.stats = res.stats;
    out.dual_sum = res.dual_sum;
    out.phases = res.phases;
    return out;
  }
};

class DistRandSolver final : public Solver {
 public:
  std::string_view Name() const noexcept override { return "dist-rand"; }
  std::string_view Description() const noexcept override {
    return "distributed randomized tree embedding (Theorem 5.2)";
  }
  bool Distributed() const noexcept override { return true; }
  SolverOutput SolveMinimal(const Graph& g, const IcInstance& ic,
                            const SolveOptions& options,
                            std::uint64_t seed) const override {
    RandomizedOptions ropt;
    ropt.repetitions = options.repetitions;
    ropt.net = options.net;
    auto res = RunRandomizedSteinerForest(g, ic, ropt, seed);
    SolverOutput out;
    out.forest = std::move(res.forest);
    out.stats = res.stats;
    return out;
  }
};

class DistKhanSolver final : public Solver {
 public:
  std::string_view Name() const noexcept override { return "dist-khan"; }
  std::string_view Description() const noexcept override {
    return "per-component selection baseline (Khan et al. style)";
  }
  bool Distributed() const noexcept override { return true; }
  SolverOutput SolveMinimal(const Graph& g, const IcInstance& ic,
                            const SolveOptions& options,
                            std::uint64_t seed) const override {
    auto res = RunKhanBaseline(g, ic, seed, options.net);
    SolverOutput out;
    out.forest = std::move(res.forest);
    out.stats = res.stats;
    return out;
  }
};

// Races a roster of registry solvers per unit on a RoundPool and returns
// the cheapest feasible candidate (DESIGN.md §3 "Portfolio racing &
// cancellation"). Members run with net.threads = 1 (no nested simulator
// pools); the pool's width is SolveOptions::net.threads. mode=all runs
// every member to completion and picks by (weight, registry order) — the
// result is bit-identical across every racing width. mode=first CASes the
// first feasible finisher into the winner slot and cancels the rest via a
// shared token; any feasible member output is a valid answer, which is
// what makes the non-deterministic mode safe to serve (and to cache).
class PortfolioSolver final : public Solver {
 public:
  std::string_view Name() const noexcept override { return "portfolio"; }
  std::string_view Description() const noexcept override {
    return "races a solver roster per unit; cheapest feasible forest wins "
           "(mode=all deterministic, mode=first lowest-latency)";
  }
  bool Distributed() const noexcept override { return false; }
  SolverOutput SolveMinimal(const Graph& g, const IcInstance& ic,
                            const SolveOptions& options,
                            std::uint64_t seed) const override;
};

// Canonical registration order — also the order Names() reports, the CLI
// runs under `--solvers all`, and the portfolio's mode=all tie-break.
const std::array<const Solver*, 9>& Table() {
  static const ExactSolver exact;
  static const GwMoatSolver gw;
  static const MstPruneSolver mst;
  static const GreedyMergeSolver greedy;
  static const LocalSearchSolver local;
  static const DistDetSolver det;
  static const DistRandSolver rand;
  static const DistKhanSolver khan;
  static const PortfolioSolver portfolio;
  static const std::array<const Solver*, 9> table{
      &exact, &gw, &mst, &greedy, &local, &det, &rand, &khan, &portfolio};
  return table;
}

int TableIndex(std::string_view name) {
  const auto& table = Table();
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (table[i]->Name() == name) return static_cast<int>(i);
  }
  return -1;
}

SolverOutput PortfolioSolver::SolveMinimal(const Graph& g,
                                           const IcInstance& ic,
                                           const SolveOptions& options,
                                           std::uint64_t seed) const {
  // Resolve the roster — already canonicalized when the request came
  // through the pipeline's spec parser; defaulted here for direct calls.
  std::vector<std::string> roster = options.roster;
  if (roster.empty()) {
    for (const std::string_view name : kDefaultPortfolioRoster) {
      roster.emplace_back(name);
    }
  }
  const int count = static_cast<int>(roster.size());
  struct Member {
    const Solver* solver = nullptr;
    int registry_index = 0;
  };
  std::vector<Member> members;
  members.reserve(static_cast<std::size_t>(count));
  for (const std::string& name : roster) {
    DSF_CHECK_MSG(name != "portfolio", "portfolio cannot nest itself");
    members.push_back({&SolverRegistry::Get(name), TableIndex(name)});
  }

  // Racing width: net.threads (0 = hardware concurrency), never wider than
  // the roster.
  int width = options.net.threads;
  if (width <= 0) {
    width = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  width = std::min(width, count);

  struct Candidate {
    SolverOutput out;
    Weight weight = 0;
    bool feasible = false;
    bool valid = false;  // member returned (did not throw)
  };
  std::vector<Candidate> candidates(static_cast<std::size_t>(count));
  // mode=first coordination: the shared race token chains below the
  // caller's token, so a member expires when the race is decided OR the
  // whole solve's deadline passes.
  CancelToken race;
  race.SetParent(options.cancel);
  std::atomic<int> first_winner{-1};

  const auto run_member = [&](int i, int /*executor*/) {
    Candidate& cand = candidates[static_cast<std::size_t>(i)];
    try {
      SolveOptions mo = options;
      mo.roster.clear();
      mo.race_first = false;
      mo.latency_hints.clear();
      mo.deadline_ms = 0;  // the pipeline's deadline already wraps `cancel`
      const CancelToken* token = options.race_first ? &race : options.cancel;
      mo.cancel = token;
      mo.net.cancel = token;
      mo.net.threads = 1;  // no nested simulator pools under the racer
      // The unit seed goes to every member unchanged: mode=all equals the
      // min-cost over standalone runs, and editing the roster never
      // reshuffles another member's random stream.
      SolverOutput o =
          members[static_cast<std::size_t>(i)].solver->SolveMinimal(g, ic, mo,
                                                                    seed);
      // Feasibility decides by the forest alone: an anytime member
      // (local-search) may be cancelled yet still hold a feasible
      // incumbent, which remains a full-fledged candidate.
      cand.feasible = IsFeasible(g, ic, o.forest);
      if (cand.feasible && options.prune && !o.forest.empty()) {
        o.forest = MinimalFeasibleSubforest(g, ic, o.forest);
      }
      cand.weight = g.WeightOf(o.forest);
      cand.out = std::move(o);
      cand.valid = true;
      if (cand.feasible && options.race_first) {
        int expected = -1;
        if (first_winner.compare_exchange_strong(expected, i)) {
          race.Cancel();  // losers stop at their next checkpoint
        }
      }
    } catch (const std::exception&) {
      // A cancelled racer can trip an internal invariant mid-teardown; a
      // throwing member simply fields no candidate.
      cand.valid = false;
    }
  };

  // mode=first start order: historically-fastest members first (latency
  // hints from the serve tier's p50 rings), so a width-starved race decides
  // sooner. mode=all keeps the identity order — its pick is independent of
  // start order, preserving bit-identity across hint states.
  std::vector<int> order(static_cast<std::size_t>(count));
  std::iota(order.begin(), order.end(), 0);
  if (options.race_first && !options.latency_hints.empty()) {
    order = PortfolioStartOrder(roster, options.latency_hints);
  }
  const auto run_slot = [&](int slot, int executor) {
    run_member(order[static_cast<std::size_t>(slot)], executor);
  };
  if (width <= 1 || count <= 1) {
    for (int i = 0; i < count; ++i) run_slot(i, 0);
  } else {
    detail::RoundPool pool(width);
    pool.ParallelFor(count, run_slot);
  }

  // mode=first: the member that fired the CAS wins outright.
  int pick = options.race_first ? first_winner.load() : -1;
  if (pick < 0) {
    // mode=all (and the nobody-finished fallback): cheapest feasible
    // candidate, ties to the earliest registry entry — deterministic
    // across every racing width.
    for (int i = 0; i < count; ++i) {
      const Candidate& c = candidates[static_cast<std::size_t>(i)];
      if (!c.valid || !c.feasible) continue;
      if (pick < 0) {
        pick = i;
        continue;
      }
      const Candidate& best = candidates[static_cast<std::size_t>(pick)];
      if (c.weight < best.weight ||
          (c.weight == best.weight &&
           members[static_cast<std::size_t>(i)].registry_index <
               members[static_cast<std::size_t>(pick)].registry_index)) {
        pick = i;
      }
    }
  }

  if (pick < 0) {
    // Nothing feasible (outer cancellation, typically): best-effort partial
    // from the first member that returned at all, reported cancelled.
    SolverOutput out;
    for (Candidate& c : candidates) {
      if (c.valid) {
        out = std::move(c.out);
        break;
      }
    }
    out.cancelled = true;
    return out;
  }
  return std::move(candidates[static_cast<std::size_t>(pick)].out);
}

}  // namespace

const Solver* SolverRegistry::Find(std::string_view name) noexcept {
  for (const Solver* s : Table()) {
    if (s->Name() == name) return s;
  }
  return nullptr;
}

const Solver& SolverRegistry::Get(std::string_view name) {
  const Solver* s = Find(name);
  if (s == nullptr) {
    std::ostringstream known;
    for (const Solver* k : Table()) known << " " << k->Name();
    DSF_CHECK_MSG(false, "unknown solver '" << name << "'; registered:"
                                            << known.str());
  }
  return *s;
}

std::vector<std::string_view> SolverRegistry::Names() {
  std::vector<std::string_view> names;
  names.reserve(Table().size());
  for (const Solver* s : Table()) names.push_back(s->Name());
  return names;
}

namespace {

// The incumbent rule of a warm start (the local-search moves of Groß et
// al., arXiv:1707.02753): a caller-supplied forest is an answer already in
// hand, so a result that is infeasible or heavier than it gives way to it.
// The warm start is checked before it is substituted — ids in range, a
// forest, feasible for `ic` (and for the CR pairs) — and the core's result
// stands when any check fails. Every warm solve pays only the range check
// and the weight sum; the forest and feasibility checks run only when the
// warm start would replace the result. `feasible` is false unless the
// result was validated, so an unvalidated result gives way to a warm start
// that passes them.
void KeepWarmStartIncumbent(const Graph& g, const SolveRequest& request,
                            const IcInstance& ic,
                            std::span<const EdgeId> warm,
                            SolveResult& result) {
  for (const EdgeId e : warm) {
    if (e < 0 || e >= g.NumEdges()) return;
  }
  const Weight warm_weight = g.WeightOf(warm);
  if (result.feasible && result.weight <= warm_weight) return;
  if (!g.IsForest(warm) || !IsFeasible(g, ic, warm) ||
      (request.use_cr && !IsFeasibleCr(g, request.cr, warm))) {
    return;
  }
  result.forest.assign(warm.begin(), warm.end());
  std::sort(result.forest.begin(), result.forest.end());
  result.weight = warm_weight;
  result.validated = true;
  result.feasible = true;
}

// `options` is by value: it is a handful of scalars, and the batch entry
// point patches the scheduler field without touching the caller's request.
SolveResult SolveImpl(const SolveRequest& request, std::uint64_t seed,
                      SolveOptions options) {
  const SolverSpec spec = ParseSolverSpec(request.solver);
  const Solver& solver = SolverRegistry::Get(spec.base);
  DSF_CHECK_MSG(request.graph != nullptr && request.graph->Finalized(),
                "SolveRequest needs a finalized graph");
  const Graph& g = *request.graph;

  // Portfolio knobs from the spec; explicitly-set options win so the
  // convenience API can pass a roster without spelling a spec string.
  if (spec.IsPortfolio()) {
    if (options.roster.empty()) options.roster = spec.roster;
    options.race_first = options.race_first || spec.mode == "first";
  }
  // Deadline: tightest of the option and the spec (both in wall ms). The
  // token lives on this frame and chains below any caller-provided token,
  // so external cancellation still fires under a generous deadline.
  int deadline_ms = options.deadline_ms;
  if (spec.deadline_ms > 0 &&
      (deadline_ms == 0 || spec.deadline_ms < deadline_ms)) {
    deadline_ms = spec.deadline_ms;
  }
  CancelToken deadline_token;
  if (deadline_ms > 0) {
    deadline_token.SetParent(options.cancel);
    deadline_token.SetDeadlineAfterMs(deadline_ms);
    options.cancel = &deadline_token;
    options.deadline_ms = 0;  // consumed; cores see only the token
  }
  if (options.net.cancel == nullptr) options.net.cancel = options.cancel;
  const bool cancellable = options.cancel != nullptr;

  SolveResult result;
  result.solver = spec.Canonical();

  // CR input: the distributed Lemma 2.3 transform turns pairwise requests
  // into input components; its rounds/messages/bits are reported separately
  // so the solver core's accounting stays comparable across input forms.
  IcInstance ic;
  if (request.use_cr) {
    DSF_CHECK(request.cr.NumNodes() == g.NumNodes());
    auto transformed = RunDistributedCrToIc(g, request.cr, seed, options.net);
    result.transform_rounds = transformed.stats.rounds;
    result.transform_messages = transformed.stats.messages;
    result.transform_bits = transformed.stats.total_bits;
    ic = std::move(transformed.instance);
  } else {
    DSF_CHECK(request.ic.NumNodes() == g.NumNodes());
    ic = request.ic;
  }
  const IcInstance minimal = MakeMinimal(ic);

  const auto start = std::chrono::steady_clock::now();
  SolverOutput core = solver.SolveMinimal(g, minimal, options, seed);
  // A cancelled core may hand back an infeasible partial forest, which the
  // minimal-subforest extraction rejects by contract — gate the prune on
  // feasibility whenever cancellation was in play.
  if (options.prune && !core.forest.empty() &&
      (!cancellable || IsFeasible(g, minimal, core.forest))) {
    core.forest = MinimalFeasibleSubforest(g, minimal, core.forest);
  }
  const auto stop = std::chrono::steady_clock::now();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();

  result.forest = std::move(core.forest);
  std::sort(result.forest.begin(), result.forest.end());
  result.weight = g.WeightOf(result.forest);
  result.stats = core.stats;
  result.dual_lower_bound = core.dual_sum;
  result.phases = core.phases;
  result.cancelled = core.cancelled || core.stats.cancelled;

  if (options.validate) {
    result.validated = true;
    result.feasible = IsFeasible(g, ic, result.forest) &&
                      (!request.use_cr ||
                       IsFeasibleCr(g, request.cr, result.forest));
  }
  if (!options.warm_start.empty()) {
    KeepWarmStartIncumbent(g, request, ic, options.warm_start, result);
  }
  if (options.compute_reference) {
    // The exact core already produced the optimum; don't run the DP twice.
    result.reference_weight = solver.Name() == "exact"
                                  ? result.weight
                                  : ExactSteinerForestWeight(g, minimal);
    if (result.reference_weight > 0 && result.reference_weight < kInfWeight) {
      result.approx_ratio = static_cast<double>(result.weight) /
                            static_cast<double>(result.reference_weight);
    } else if (result.reference_weight == 0 && result.weight == 0) {
      result.approx_ratio = 1.0;
    }
  }
  return result;
}

}  // namespace

std::vector<int> PortfolioStartOrder(
    std::span<const std::string> roster,
    std::span<const std::pair<std::string, double>> hints) {
  const int n = static_cast<int>(roster.size());
  std::vector<double> p50(static_cast<std::size_t>(n), -1.0);
  for (int i = 0; i < n; ++i) {
    for (const auto& [name, ms] : hints) {
      if (name == roster[static_cast<std::size_t>(i)]) {
        p50[static_cast<std::size_t>(i)] = ms;
        break;
      }
    }
  }
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const double pa = p50[static_cast<std::size_t>(a)];
    const double pb = p50[static_cast<std::size_t>(b)];
    const bool ha = pa >= 0.0;
    const bool hb = pb >= 0.0;
    if (ha != hb) return ha;  // members with history start first
    return ha && pa < pb;     // fastest history first; stable otherwise
  });
  return order;
}

SolveResult Solve(const SolveRequest& request) {
  return SolveImpl(request, request.seed, request.options);
}

SolveResult Solve(const SolveRequest& request, std::uint64_t seed_override,
                  int net_threads_override) {
  SolveOptions options = request.options;
  options.net.threads = net_threads_override;
  return SolveImpl(request, seed_override, options);
}

SolveResult Solve(std::string_view solver, const Graph& g,
                  const IcInstance& ic, const SolveOptions& options,
                  std::uint64_t seed) {
  SolveRequest req;
  req.solver = std::string(solver);
  req.graph = &g;
  req.ic = ic;
  req.options = options;
  req.seed = seed;
  return Solve(req);
}

SolveResult Solve(std::string_view solver, const Graph& g,
                  const CrInstance& cr, const SolveOptions& options,
                  std::uint64_t seed) {
  SolveRequest req;
  req.solver = std::string(solver);
  req.graph = &g;
  req.cr = cr;
  req.use_cr = true;
  req.options = options;
  req.seed = seed;
  return Solve(req);
}

}  // namespace dsf
