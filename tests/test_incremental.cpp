// The incremental re-solve tier (DESIGN.md §3/§5): instance deltas, forest
// repair, PrepareWarmStart then Solve, churn traces, and the serve-side
// `revise` op — including the cache-key contract (a warm revise result is
// inserted under the *cold* canonical key of the revised instance) and the
// never-worse-than-warm-start guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/json.hpp"
#include "common/random.hpp"
#include "serve/admission.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "solve/incremental.hpp"
#include "solve/solver.hpp"
#include "steiner/delta.hpp"
#include "steiner/validate.hpp"
#include "workload/churn.hpp"
#include "workload/spec.hpp"

namespace dsf {
namespace {

// rows x cols grid with deterministic non-uniform weights, so repairs have
// real choices to make.
Graph GridGraph(int rows, int cols) {
  std::vector<Edge> edges;
  const auto at = [cols](int r, int c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const Weight w = static_cast<Weight>((r * 31 + c * 17) % 7 + 1);
      if (c + 1 < cols) edges.push_back({at(r, c), at(r, c + 1), w});
      if (r + 1 < rows) edges.push_back({at(r, c), at(r + 1, c), w + 1});
    }
  }
  return MakeGraph(rows * cols, edges);
}

// --- deltas ------------------------------------------------------------------

TEST(DeltaTest, CrApplyRemovesThenAdds) {
  const CrInstance base = MakeCrInstance(5, {{0, 3}, {1, 4}});
  InstanceDelta delta;
  delta.remove_pairs = {{0, 3}};
  delta.add_pairs = {{2, 3}};
  const CrInstance out = ApplyDelta(base, delta);
  EXPECT_TRUE(out.requests[0].empty());
  EXPECT_EQ(out.requests[2], (std::vector<NodeId>{3}));
  EXPECT_EQ(out.requests[3], (std::vector<NodeId>{2}));
  EXPECT_EQ(out.requests[1], (std::vector<NodeId>{4}));
  EXPECT_EQ(out.NumRequests(), 4);
  // The base is untouched.
  EXPECT_EQ(base.requests[0], (std::vector<NodeId>{3}));
}

TEST(DeltaTest, IcApplyRemovesThenAdds) {
  const IcInstance base = MakeIcInstance(6, {{0, 1}, {3, 1}, {4, 2}});
  InstanceDelta delta;
  delta.remove_terminals = {4};
  delta.add_terminals = {{1, 2}, {5, 2}};
  const IcInstance out = ApplyDelta(base, delta);
  EXPECT_EQ(out.LabelOf(0), 1);
  EXPECT_EQ(out.LabelOf(3), 1);
  EXPECT_EQ(out.LabelOf(4), kNoLabel);
  EXPECT_EQ(out.LabelOf(1), 2);
  EXPECT_EQ(out.LabelOf(5), 2);
  EXPECT_EQ(out.NumTerminals(), 4);
}

TEST(DeltaTest, RemoveThenReAddSameNodeIsValid) {
  // Removals apply before additions, so a single delta can re-label a node.
  const IcInstance base = MakeIcInstance(4, {{0, 1}, {1, 1}});
  InstanceDelta delta;
  delta.remove_terminals = {1};
  delta.add_terminals = {{1, 9}, {2, 9}};
  const IcInstance out = ApplyDelta(base, delta);
  EXPECT_EQ(out.LabelOf(1), 9);
  EXPECT_EQ(out.LabelOf(2), 9);
}

TEST(DeltaTest, RejectsInvalidEdits) {
  const CrInstance cr = MakeCrInstance(4, {{0, 3}});
  const IcInstance ic = MakeIcInstance(4, {{0, 1}, {3, 1}});
  const auto cr_throws = [&](const InstanceDelta& d) {
    EXPECT_THROW((void)ApplyDelta(cr, d), std::runtime_error);
  };
  const auto ic_throws = [&](const InstanceDelta& d) {
    EXPECT_THROW((void)ApplyDelta(ic, d), std::runtime_error);
  };
  InstanceDelta d;
  d.add_pairs = {{0, 7}};  // node out of range
  cr_throws(d);
  d = {};
  d.add_pairs = {{2, 2}};  // degenerate pair
  cr_throws(d);
  d = {};
  d.add_pairs = {{0, 3}};  // already present
  cr_throws(d);
  d = {};
  d.remove_pairs = {{1, 2}};  // not present
  cr_throws(d);
  d = {};
  d.remove_terminals = {1};  // not a terminal
  ic_throws(d);
  d = {};
  d.add_terminals = {{0, 2}};  // already a terminal
  ic_throws(d);
  d = {};
  d.add_terminals = {{1, kNoLabel}};  // invalid label
  ic_throws(d);
}

TEST(DeltaTest, MatchesFormSeparatesEditLanguages) {
  InstanceDelta cr_delta;
  cr_delta.add_pairs = {{0, 1}};
  EXPECT_TRUE(cr_delta.MatchesForm(true));
  EXPECT_FALSE(cr_delta.MatchesForm(false));
  InstanceDelta ic_delta;
  ic_delta.remove_terminals = {2};
  EXPECT_TRUE(ic_delta.MatchesForm(false));
  EXPECT_FALSE(ic_delta.MatchesForm(true));
  EXPECT_TRUE(InstanceDelta{}.MatchesForm(true));
  EXPECT_TRUE(InstanceDelta{}.MatchesForm(false));
}

// --- forest repair -----------------------------------------------------------

TEST(RepairTest, AttachConnectsAddedComponent) {
  const Graph g = GridGraph(5, 5);
  const IcInstance base_ic = MakeIcInstance(25, {{0, 1}, {24, 1}});
  const SolveResult base = Solve("local-search", g, base_ic);
  ASSERT_TRUE(base.feasible);

  InstanceDelta delta;
  delta.add_terminals = {{4, 2}, {20, 2}};
  const IcInstance revised = ApplyDelta(base_ic, delta);
  const RepairOutcome repair = RepairForest(g, revised, base.forest);
  ASSERT_TRUE(repair.ok);
  EXPECT_TRUE(g.IsForest(repair.forest));
  EXPECT_TRUE(IsFeasible(g, revised, repair.forest));
  EXPECT_GT(repair.attached, 0);
}

TEST(RepairTest, PruneDropsEdgesOnlyRemovedDemandsNeeded) {
  const Graph g = GridGraph(5, 5);
  // Two far-apart components; dropping one should shed real weight.
  const IcInstance base_ic =
      MakeIcInstance(25, {{0, 1}, {24, 1}, {4, 2}, {20, 2}});
  const SolveResult base = Solve("local-search", g, base_ic);
  ASSERT_TRUE(base.feasible);

  InstanceDelta delta;
  delta.remove_terminals = {4, 20};
  const IcInstance revised = ApplyDelta(base_ic, delta);
  const RepairOutcome repair = RepairForest(g, revised, base.forest);
  ASSERT_TRUE(repair.ok);
  EXPECT_TRUE(IsFeasible(g, revised, repair.forest));
  EXPECT_GT(repair.dropped, 0);
  EXPECT_LT(g.WeightOf(repair.forest), g.WeightOf(base.forest));
}

TEST(RepairTest, ChurnSweepStaysFeasibleThroughMixedDeltas) {
  // Every (state k, step k) along churn traces repairs to a feasible forest:
  // the mixed add+remove path, across population sizes and seeds.
  const Graph g = GridGraph(8, 8);
  for (const std::uint64_t seed : {1ULL, 7ULL, 1234ULL}) {
    const ChurnTrace trace = SampleChurnTrace(64, 0, 10, 12, 2, seed);
    for (std::size_t k = 0; k < trace.steps.size(); ++k) {
      const IcInstance state = trace.StateAt(static_cast<int>(k));
      const SolveResult solved = Solve("local-search", g, state);
      ASSERT_TRUE(solved.feasible) << "seed " << seed << " state " << k;
      const IcInstance next = trace.StateAt(static_cast<int>(k) + 1);
      const RepairOutcome repair = RepairForest(g, next, solved.forest);
      ASSERT_TRUE(repair.ok) << "seed " << seed << " step " << k;
      EXPECT_TRUE(g.IsForest(repair.forest));
      EXPECT_TRUE(IsFeasible(g, next, repair.forest));
    }
  }
}

TEST(RepairTest, RejectsStructurallyBadBaseForests) {
  const Graph g = GridGraph(3, 3);
  const IcInstance ic = MakeIcInstance(9, {{0, 1}, {8, 1}});
  // Out-of-range edge id (a base key that named a different graph).
  EXPECT_FALSE(RepairForest(g, ic, std::vector<EdgeId>{9999}).ok);
  // A cycle is not a forest: edges 0-1, 1-2, 0-3, 3-4 plus the closing ones.
  std::vector<EdgeId> cycle;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) cycle.push_back(e);
  EXPECT_FALSE(RepairForest(g, ic, cycle).ok);
}

TEST(RepairTest, UnreachableTerminalFailsCleanly) {
  // Two islands; the revised component spans both. Repair must come back
  // ok == false (cold fallback), not crash or return an infeasible forest.
  const Graph g = MakeGraph(6, {{0, 1, 1}, {1, 2, 1}, {3, 4, 1}, {4, 5, 1}});
  const IcInstance revised = MakeIcInstance(6, {{0, 1}, {5, 1}});
  const RepairOutcome repair = RepairForest(g, revised, std::vector<EdgeId>{});
  EXPECT_FALSE(repair.ok);
}

// --- PrepareWarmStart, then Solve -------------------------------------------

TEST(IncrementalTest, WarmResultNeverWorseThanWarmStart) {
  const Graph g = GridGraph(8, 8);
  const ChurnTrace trace = SampleChurnTrace(64, 0, 12, 8, 1, 42);
  for (std::size_t k = 0; k < trace.steps.size(); ++k) {
    SolveRequest base;
    base.solver = "local-search";
    base.graph = &g;
    base.ic = trace.StateAt(static_cast<int>(k));
    base.seed = 7 + k;
    const SolveResult solved = Solve(base);
    ASSERT_TRUE(solved.feasible);

    const WarmStartPlan plan =
        PrepareWarmStart(base, solved.forest, ToDelta(trace.steps[k]));
    ASSERT_TRUE(plan.warm) << plan.cold_reason;
    const SolveResult result = Solve(plan.revised);
    EXPECT_TRUE(result.feasible);
    EXPECT_LE(result.weight, plan.warm_weight);
    EXPECT_TRUE(
        IsFeasible(g, trace.StateAt(static_cast<int>(k) + 1), result.forest));
  }
}

TEST(IncrementalTest, OversizedDeltaFallsBackCold) {
  const Graph g = GridGraph(5, 5);
  SolveRequest base;
  base.solver = "local-search";
  base.graph = &g;
  base.ic = MakeIcInstance(25, {{0, 1}, {24, 1}});
  const SolveResult solved = Solve(base);
  ASSERT_TRUE(solved.feasible);

  InstanceDelta delta;  // 4 edits vs 2 demands: over any sane fraction
  delta.add_terminals = {{4, 2}, {20, 2}, {2, 3}, {22, 3}};
  const WarmStartPlan plan = PrepareWarmStart(base, solved.forest, delta);
  EXPECT_FALSE(plan.warm);
  EXPECT_NE(plan.cold_reason.find("delta too large"), std::string::npos);
  EXPECT_TRUE(Solve(plan.revised).feasible);  // the cold path still answers
}

TEST(IncrementalTest, NonWarmStartableSolverFallsBackCold) {
  const Graph g = GridGraph(4, 4);
  SolveRequest base;
  base.solver = "gw-moat";
  base.graph = &g;
  base.ic = MakeIcInstance(16, {{0, 1}, {15, 1}});
  const SolveResult solved = Solve(base);
  ASSERT_TRUE(solved.feasible);

  InstanceDelta delta;
  delta.add_terminals = {{3, 2}, {12, 2}};
  const WarmStartPlan plan = PrepareWarmStart(base, solved.forest, delta);
  EXPECT_FALSE(plan.warm);
  EXPECT_NE(plan.cold_reason.find("not warm-startable"), std::string::npos);
  EXPECT_TRUE(Solve(plan.revised).feasible);
}

TEST(IncrementalTest, DeterministicAcrossRuns) {
  const Graph g = GridGraph(6, 6);
  SolveRequest base;
  base.solver = "local-search";
  base.graph = &g;
  base.ic = MakeIcInstance(36, {{0, 1}, {35, 1}, {5, 2}, {30, 2}});
  base.seed = 99;
  const SolveResult solved = Solve(base);
  InstanceDelta delta;
  delta.remove_terminals = {5, 30};
  delta.add_terminals = {{2, 3}, {33, 3}};
  const WarmStartPlan a = PrepareWarmStart(base, solved.forest, delta);
  const WarmStartPlan b = PrepareWarmStart(base, solved.forest, delta);
  EXPECT_EQ(a.warm, b.warm);
  const SolveResult ra = Solve(a.revised);
  const SolveResult rb = Solve(b.revised);
  EXPECT_EQ(ra.weight, rb.weight);
  EXPECT_EQ(ra.forest, rb.forest);
}

// --- churn traces ------------------------------------------------------------

TEST(ChurnTest, DeterministicAndPrefixStable) {
  const ChurnTrace a = SampleChurnTrace(100, 0, 8, 10, 2, 31337);
  const ChurnTrace b = SampleChurnTrace(100, 0, 8, 10, 2, 31337);
  EXPECT_EQ(a.base.labels, b.base.labels);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].add_terminals, b.steps[i].add_terminals);
    EXPECT_EQ(a.steps[i].remove_terminals, b.steps[i].remove_terminals);
  }
  // Prefix stability: a longer trace from the same seed starts identically.
  const ChurnTrace longer = SampleChurnTrace(100, 0, 8, 14, 2, 31337);
  EXPECT_EQ(longer.base.labels, a.base.labels);
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(longer.steps[i].add_terminals, a.steps[i].add_terminals);
    EXPECT_EQ(longer.steps[i].remove_terminals, a.steps[i].remove_terminals);
  }
  EXPECT_EQ(longer.StateAt(10).labels, a.StateAt(10).labels);
}

TEST(ChurnTest, StatesArePairPopulationsWithFreshLabels) {
  const ChurnTrace trace = SampleChurnTrace(80, 0, 9, 20, 3, 5);
  Label max_seen = 0;
  for (const Label l : trace.base.DistinctLabels()) {
    max_seen = std::max(max_seen, l);
  }
  for (int k = 0; k <= 20; ++k) {
    const IcInstance state = trace.StateAt(k);
    // Population size is constant and every component is one disjoint pair.
    EXPECT_EQ(state.NumTerminals(), 18) << "state " << k;
    EXPECT_EQ(state.NumComponents(), 9) << "state " << k;
    for (const Label l : state.DistinctLabels()) {
      int count = 0;
      for (NodeId v = 0; v < state.NumNodes(); ++v) {
        if (state.LabelOf(v) == l) ++count;
      }
      EXPECT_EQ(count, 2) << "state " << k << " label " << l;
    }
  }
  // Labels grow monotonically: arrivals never reuse a retired label.
  for (const ChurnStep& step : trace.steps) {
    for (const auto& [node, label] : step.add_terminals) {
      EXPECT_GT(label, max_seen);
    }
    for (const auto& [node, label] : step.add_terminals) {
      max_seen = std::max(max_seen, label);
    }
  }
}

TEST(ChurnTest, StateAtMatchesManualDeltaChain) {
  const ChurnTrace trace = SampleChurnTrace(60, 0, 6, 15, 2, 777);
  IcInstance state = trace.base;
  for (int k = 0; k < 15; ++k) {
    EXPECT_EQ(state.labels, trace.StateAt(k).labels) << "state " << k;
    state = ApplyDelta(state, ToDelta(trace.steps[static_cast<std::size_t>(k)]));
  }
  EXPECT_EQ(state.labels, trace.StateAt(15).labels);
}

TEST(ChurnTest, RejectsImpossibleDraws) {
  EXPECT_THROW((void)SampleChurnTrace(100, 0, 4, 5, 5, 1),  // churn > pairs
               std::runtime_error);
  EXPECT_THROW((void)SampleChurnTrace(9, 0, 4, 5, 1, 1),  // range too tight
               std::runtime_error);
  EXPECT_THROW((void)SampleChurnTrace(100, 0, 0, 5, 0, 1),  // no pairs
               std::runtime_error);
}

// --- cache-key hex -----------------------------------------------------------

TEST(CacheKeyHexTest, RoundTripsAndRejectsMalformed) {
  const CacheKey key{/*lo=*/0x0123456789abcdefULL,
                     /*hi=*/0xfedcba9876543210ULL};
  const std::string hex = CacheKeyToHex(key);  // hi digits first
  EXPECT_EQ(hex, "fedcba98765432100123456789abcdef");
  CacheKey back{};
  ASSERT_TRUE(CacheKeyFromHex(hex, &back));
  EXPECT_EQ(back, key);
  // Uppercase parses to the same key.
  ASSERT_TRUE(CacheKeyFromHex("FEDCBA98765432100123456789ABCDEF", &back));
  EXPECT_EQ(back, key);
  EXPECT_FALSE(CacheKeyFromHex("", &back));
  EXPECT_FALSE(CacheKeyFromHex("0123", &back));                // short
  EXPECT_FALSE(CacheKeyFromHex(hex + "00", &back));            // long
  EXPECT_FALSE(CacheKeyFromHex(std::string(31, '0') + "g", &back));  // non-hex
}

// --- the revise op (in-process protocol) -------------------------------------

std::string EscapeForJson(const std::string& text) {
  std::ostringstream os;
  JsonWriter json(os);
  json.String(text);
  return os.str();
}

// Spec text of (grid graph g, IC state): explicit edges + terminal lines, so
// a cold solve of a revised state can be framed independently of any delta.
std::string SpecTextFor(const Graph& g, const IcInstance& state,
                        std::uint64_t seed) {
  std::ostringstream os;
  os << "seed " << seed << "\n";
  os << "graph " << g.NumNodes() << "\n";
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const Edge& edge = g.GetEdge(e);
    os << "edge " << edge.u << " " << edge.v << " " << edge.w << "\n";
  }
  os << "ic churned\n";
  for (NodeId v = 0; v < state.NumNodes(); ++v) {
    if (state.IsTerminal(v)) {
      os << "terminal " << v << " " << state.LabelOf(v) << "\n";
    }
  }
  return os.str();
}

std::string DeltaJson(const InstanceDelta& delta) {
  std::ostringstream os;
  JsonWriter json(os);
  json.BeginObject();
  if (!delta.add_terminals.empty()) {
    json.Key("add_terminals");
    json.BeginArray();
    for (const auto& [node, label] : delta.add_terminals) {
      json.BeginArray();
      json.Int(node);
      json.Int(label);
      json.EndArray();
    }
    json.EndArray();
  }
  if (!delta.remove_terminals.empty()) {
    json.Key("remove_terminals");
    json.BeginArray();
    for (const NodeId v : delta.remove_terminals) json.Int(v);
    json.EndArray();
  }
  json.EndObject();
  return os.str();
}

struct InProcessService {
  ResultCache cache{4096};
  AdmissionQueue queue{&cache, {}};
  ServeContext ctx{&cache, &queue};
};

std::string SolveLine(const std::string& spec) {
  return R"({"op":"solve","spec":)" + EscapeForJson(spec) +
         R"(,"solvers":["local-search"]})";
}

std::string ReviseLine(const std::string& base_spec, const std::string& key,
                       const InstanceDelta& delta,
                       const std::string& mode = "") {
  std::string line = R"({"op":"revise","spec":)" + EscapeForJson(base_spec) +
                     R"(,"solvers":["local-search"],"base":")" + key +
                     R"(","delta":)" + DeltaJson(delta);
  if (!mode.empty()) line += R"(,"mode":")" + mode + R"(")";
  line += "}";
  return line;
}

std::vector<EdgeId> EdgesOf(const JsonValue& response) {
  std::vector<EdgeId> out;
  const JsonValue* results = response.Find("results");
  if (results == nullptr || results->array.empty()) return out;
  for (const JsonValue& e : results->array[0].Find("edges")->array) {
    out.push_back(static_cast<EdgeId>(e.number));
  }
  return out;
}

TEST(ReviseProtocolTest, WarmPathMatchesPrepareThenSolve) {
  const Graph g = GridGraph(7, 7);
  const ChurnTrace trace = SampleChurnTrace(49, 0, 8, 1, 1, 2024);
  const std::string base_spec = SpecTextFor(g, trace.base, 11);
  const InstanceDelta delta = ToDelta(trace.steps[0]);

  InProcessService svc;
  const JsonValue solve =
      ParseJson(HandleRequestLine(svc.ctx, SolveLine(base_spec)));
  ASSERT_TRUE(solve.GetBool("ok", false)) << solve.GetString("error", "");
  const std::string base_key =
      solve.Find("results")->array[0].GetString("key", "");
  ASSERT_EQ(base_key.size(), 32u);

  const JsonValue revise = ParseJson(
      HandleRequestLine(svc.ctx, ReviseLine(base_spec, base_key, delta)));
  ASSERT_TRUE(revise.GetBool("ok", false)) << revise.GetString("error", "");
  EXPECT_TRUE(revise.GetBool("warm", false));
  EXPECT_TRUE(revise.GetBool("base_hit", false));
  const JsonValue& unit = revise.Find("results")->array[0];
  EXPECT_TRUE(unit.GetBool("feasible", false));

  // Bit-identical to PrepareWarmStart then Solve in one process, under the
  // serve tier's seed discipline (unit 0 of spec seed 11).
  std::istringstream in(base_spec);
  const WorkloadSpec spec = ParseWorkloadSpec(in, "<test>");
  const Workload workload = ExpandWorkload(spec);
  SolveOptions options;
  options.validate = true;
  const std::vector<std::string> solvers = {"local-search"};
  const RequestMatrix matrix = BuildRequests(workload, solvers, options);
  ASSERT_EQ(matrix.requests.size(), 1u);
  SolveRequest base_request = matrix.requests[0];
  base_request.seed = DeriveSeed(spec.seed, 0);
  const SolveResult base_result = Solve(base_request);
  ASSERT_TRUE(base_result.feasible);
  const WarmStartPlan plan =
      PrepareWarmStart(base_request, base_result.forest, delta);
  ASSERT_TRUE(plan.warm) << plan.cold_reason;
  const SolveResult expected = Solve(plan.revised);
  EXPECT_EQ(static_cast<Weight>(unit.GetNumber("weight", -1)),
            expected.weight);
  EXPECT_EQ(EdgesOf(revise), expected.forest);
  // Never worse than the repaired warm start.
  EXPECT_LE(static_cast<Weight>(unit.GetNumber("weight", -1)),
            plan.warm_weight);
}

TEST(ReviseProtocolTest, RevisedKeyEqualsColdKeyAndCachesTheResult) {
  const Graph g = GridGraph(6, 6);
  // 8 pairs = 16 terminals: a churn step's 4 edits stays under the default
  // 0.25 warm-path eligibility fraction.
  const ChurnTrace trace = SampleChurnTrace(36, 0, 8, 1, 1, 99);
  const std::string base_spec = SpecTextFor(g, trace.base, 5);
  const std::string revised_spec = SpecTextFor(g, trace.StateAt(1), 5);
  const InstanceDelta delta = ToDelta(trace.steps[0]);

  InProcessService svc;
  const JsonValue solve =
      ParseJson(HandleRequestLine(svc.ctx, SolveLine(base_spec)));
  ASSERT_TRUE(solve.GetBool("ok", false));
  const std::string base_key =
      solve.Find("results")->array[0].GetString("key", "");

  const JsonValue revise = ParseJson(
      HandleRequestLine(svc.ctx, ReviseLine(base_spec, base_key, delta)));
  ASSERT_TRUE(revise.GetBool("ok", false)) << revise.GetString("error", "");
  ASSERT_TRUE(revise.GetBool("warm", false));
  const std::string revised_key = revise.GetString("key", "");

  // A later cold-framed solve of the revised instance computes the same
  // canonical key and is served from the cache, bit-identically.
  const JsonValue cold =
      ParseJson(HandleRequestLine(svc.ctx, SolveLine(revised_spec)));
  ASSERT_TRUE(cold.GetBool("ok", false));
  EXPECT_DOUBLE_EQ(cold.GetNumber("hits", -1), 1.0);
  EXPECT_TRUE(cold.Find("results")->array[0].GetBool("cached", false));
  EXPECT_EQ(cold.Find("results")->array[0].GetString("key", ""), revised_key);
  EXPECT_EQ(EdgesOf(cold), EdgesOf(revise));
}

TEST(ReviseProtocolTest, ExactMatchModeIsBitIdenticalToColdSolve) {
  const Graph g = GridGraph(6, 6);
  const ChurnTrace trace = SampleChurnTrace(36, 0, 6, 1, 1, 321);
  const std::string base_spec = SpecTextFor(g, trace.base, 3);
  const std::string revised_spec = SpecTextFor(g, trace.StateAt(1), 3);
  const InstanceDelta delta = ToDelta(trace.steps[0]);

  InProcessService svc;
  const JsonValue solve =
      ParseJson(HandleRequestLine(svc.ctx, SolveLine(base_spec)));
  ASSERT_TRUE(solve.GetBool("ok", false));
  const std::string base_key =
      solve.Find("results")->array[0].GetString("key", "");

  const JsonValue revise = ParseJson(HandleRequestLine(
      svc.ctx, ReviseLine(base_spec, base_key, delta, "exact-match")));
  ASSERT_TRUE(revise.GetBool("ok", false)) << revise.GetString("error", "");
  EXPECT_FALSE(revise.GetBool("warm", true));

  // A fresh service's cold solve of the revised spec must agree bit for bit.
  InProcessService fresh;
  const JsonValue cold =
      ParseJson(HandleRequestLine(fresh.ctx, SolveLine(revised_spec)));
  ASSERT_TRUE(cold.GetBool("ok", false));
  EXPECT_EQ(EdgesOf(cold), EdgesOf(revise));
  EXPECT_EQ(cold.Find("results")->array[0].GetString("key", ""),
            revise.GetString("key", ""));
}

TEST(ReviseProtocolTest, BaseMissDegradesToColdSolve) {
  const Graph g = GridGraph(5, 5);
  const ChurnTrace trace = SampleChurnTrace(25, 0, 4, 1, 1, 8);
  const std::string base_spec = SpecTextFor(g, trace.base, 2);

  InProcessService svc;  // nothing cached: the base key cannot hit
  const JsonValue revise = ParseJson(HandleRequestLine(
      svc.ctx, ReviseLine(base_spec, std::string(32, 'f'),
                          ToDelta(trace.steps[0]))));
  ASSERT_TRUE(revise.GetBool("ok", false)) << revise.GetString("error", "");
  EXPECT_FALSE(revise.GetBool("warm", true));
  EXPECT_FALSE(revise.GetBool("base_hit", true));
  EXPECT_EQ(revise.GetString("cold_reason", ""), "base key not cached");
  EXPECT_TRUE(revise.Find("results")->array[0].GetBool("feasible", false));
}

TEST(ReviseProtocolTest, RejectsMalformedReviseRequests) {
  const Graph g = GridGraph(4, 4);
  const IcInstance ic = MakeIcInstance(16, {{0, 1}, {15, 1}});
  const std::string spec = SpecTextFor(g, ic, 1);
  InProcessService svc;
  const std::string esc = EscapeForJson(spec);
  const std::string key(32, 'a');
  const std::vector<std::string> bad = {
      // no base
      R"({"op":"revise","spec":)" + esc + R"(,"delta":{}})",
      // malformed base key
      R"({"op":"revise","spec":)" + esc + R"(,"base":"xyz","delta":{}})",
      // no delta
      R"({"op":"revise","spec":)" + esc + R"(,"base":")" + key + R"("})",
      // bad mode
      R"({"op":"revise","spec":)" + esc + R"(,"base":")" + key +
          R"(","delta":{},"mode":"tepid"})",
      // invalid delta edit (node 3 is not a terminal)
      R"({"op":"revise","spec":)" + esc + R"(,"base":")" + key +
          R"(","delta":{"remove_terminals":[3]}})",
      // multi-unit framing (two solvers)
      R"({"op":"revise","spec":)" + esc + R"(,"base":")" + key +
          R"(","delta":{},"solvers":["local-search","gw-moat"]})",
  };
  for (const std::string& line : bad) {
    const JsonValue v = ParseJson(HandleRequestLine(svc.ctx, line));
    EXPECT_FALSE(v.GetBool("ok", true)) << line;
    EXPECT_FALSE(v.GetString("error", "").empty()) << line;
  }
}

TEST(ReviseProtocolTest, ChurnSamplerServesAsInstanceSource) {
  // The churn sampler is a first-class instance source for the serve tier:
  // generate + instance churn(...) frames state `steps` of the trace.
  InProcessService svc;
  const JsonValue v = ParseJson(HandleRequestLine(
      svc.ctx,
      R"({"op":"solve","generate":"grid rows=8 cols=8",)"
      R"("instance":"churn pairs=6 churn=1 steps=4","solvers":["local-search"],)"
      R"("seed":13})"));
  ASSERT_TRUE(v.GetBool("ok", false)) << v.GetString("error", "");
  EXPECT_TRUE(v.Find("results")->array[0].GetBool("feasible", false));
}

}  // namespace
}  // namespace dsf
