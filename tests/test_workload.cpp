// The workload layer: generator/sampler registries, parameter validation,
// the sweep grammar and its expansion, and the SteinLib/DIMACS importers.
#include "workload/spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/properties.hpp"
#include "solve/batch.hpp"
#include "workload/churn.hpp"
#include "workload/generators.hpp"
#include "workload/import.hpp"
#include "workload/samplers.hpp"

namespace dsf {
namespace {

using ParamList = std::vector<std::pair<std::string, std::string>>;

Workload ExpandString(const std::string& text) {
  std::istringstream in(text);
  return ExpandWorkload(ParseWorkloadSpec(in, "<string>"));
}

// --- generator invariants, every family x several seeds ----------------------

class GeneratorInvariants : public ::testing::TestWithParam<std::string> {};

// The loosest upper bound the family's schema promises for edge weights:
// [min_w, max_w] families bound by max_w, fixed-weight families by the
// largest weight parameter, geometric by sqrt(2) * scale rounded up.
Weight SchemaWeightCap(const ParamMap& pm) {
  if (pm.Has("max_w")) return pm.GetInt("max_w");
  if (pm.Has("scale")) return 2 * pm.GetInt("scale");
  Weight cap = 1;
  for (const char* name : {"w", "chord_w", "spine_w", "leg_w"}) {
    if (pm.Has(name)) cap = std::max<Weight>(cap, pm.GetInt(name));
  }
  return cap;
}

TEST_P(GeneratorInvariants, ConnectedSimpleBoundedAndDeterministic) {
  const GeneratorFamily& family = GeneratorRegistry::Get(GetParam());
  const ParamMap pm = ValidateGeneratorParams(family, ParamList{});
  const Weight cap = SchemaWeightCap(pm);
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    const Graph a = BuildGenerator(family, pm, seed);
    const Graph b = BuildGenerator(family, pm, seed);

    // Same seed -> bit-identical edge list.
    ASSERT_EQ(a.NumNodes(), b.NumNodes());
    ASSERT_EQ(a.NumEdges(), b.NumEdges());
    for (EdgeId e = 0; e < a.NumEdges(); ++e) {
      ASSERT_EQ(a.GetEdge(e), b.GetEdge(e)) << "seed " << seed;
    }

    EXPECT_TRUE(IsConnected(a)) << "seed " << seed;

    std::set<std::pair<NodeId, NodeId>> seen;
    for (const Edge& e : a.Edges()) {
      EXPECT_NE(e.u, e.v) << "self-loop at seed " << seed;
      const auto key = std::minmax(e.u, e.v);
      EXPECT_TRUE(seen.insert({key.first, key.second}).second)
          << "parallel edge " << e.u << "-" << e.v << " at seed " << seed;
      EXPECT_GE(e.w, 1);
      EXPECT_LE(e.w, cap) << "weight above schema bound at seed " << seed;
    }
  }
}

std::vector<std::string> AllFamilyNames() {
  std::vector<std::string> names;
  for (const auto name : GeneratorRegistry::Names()) {
    names.emplace_back(name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, GeneratorInvariants, ::testing::ValuesIn(AllFamilyNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(GeneratorRegistryTest, SaltRedrawsRandomFamilies) {
  const Graph plain = BuildGenerator("er", ParamList{{"n", "40"}}, 5);
  const Graph salted =
      BuildGenerator("er", ParamList{{"n", "40"}, {"salt", "1"}}, 5);
  bool differs = plain.NumEdges() != salted.NumEdges();
  for (EdgeId e = 0; !differs && e < plain.NumEdges(); ++e) {
    differs = !(plain.GetEdge(e) == salted.GetEdge(e));
  }
  EXPECT_TRUE(differs);
}

TEST(GeneratorRegistryTest, RejectsBadParams) {
  EXPECT_THROW((void)GeneratorRegistry::Get("frobnicate"),
               std::runtime_error);
  EXPECT_THROW((void)BuildGenerator("er", ParamList{{"frob", "1"}}, 1),
               std::runtime_error);  // unknown key
  EXPECT_THROW((void)BuildGenerator("er", ParamList{{"n", "0"}}, 1),
               std::runtime_error);  // below range
  EXPECT_THROW((void)BuildGenerator("er", ParamList{{"n", "2x"}}, 1),
               std::runtime_error);  // trailing garbage
  EXPECT_THROW((void)BuildGenerator("er", ParamList{{"p", "nan"}}, 1),
               std::runtime_error);  // non-finite real
  EXPECT_THROW(
      (void)BuildGenerator(
          "er", ParamList{{"min_w", "9"}, {"max_w", "3"}}, 1),
      std::runtime_error);  // cross-field violation
  EXPECT_THROW(
      (void)BuildGenerator("er", ParamList{{"n", "4"}, {"n", "5"}}, 1),
      std::runtime_error);  // duplicate key
}

// --- samplers ----------------------------------------------------------------

TEST(SamplerTest, RandomIcShapeAndDeterminism) {
  const Graph g = BuildGenerator("grid", ParamList{}, 3);
  const ParamList params = {{"k", "3"}, {"tpc", "2"}};
  const WorkloadInstance a = SampleInstance("random-ic", g, params, 11);
  const WorkloadInstance b = SampleInstance("random-ic", g, params, 11);
  EXPECT_FALSE(a.use_cr);
  EXPECT_EQ(a.ic.NumTerminals(), 6);
  EXPECT_EQ(a.ic.NumComponents(), 3);
  EXPECT_TRUE(a.ic.IsMinimal());
  EXPECT_EQ(a.ic.labels, b.ic.labels);  // same seed -> same draw
  const WorkloadInstance c = SampleInstance("random-ic", g, params, 12);
  EXPECT_NE(a.ic.labels, c.ic.labels);
}

TEST(SamplerTest, RandomIcSpanPinsDrawsAcrossSubdivision) {
  // Base nodes are the id prefix of a subdivided graph: with span fixed to
  // the base size, every subdivision depth must see the same terminals.
  const ParamList base_params = {{"n", "20"}, {"pieces", "1"}};
  const ParamList deep_params = {{"n", "20"}, {"pieces", "4"}};
  const Graph shallow = BuildGenerator("subdivided-er", base_params, 9);
  const Graph deep = BuildGenerator("subdivided-er", deep_params, 9);
  const ParamList sample_params = {{"k", "2"}, {"tpc", "2"}, {"span", "20"}};
  const auto a = SampleInstance("random-ic", shallow, sample_params, 4);
  const auto b = SampleInstance("random-ic", deep, sample_params, 4);
  const auto ta = a.ic.Terminals();
  const auto tb = b.ic.Terminals();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i], tb[i]);
    EXPECT_LT(ta[i], 20);
    EXPECT_EQ(a.ic.LabelOf(ta[i]), b.ic.LabelOf(tb[i]));
  }
}

TEST(SamplerTest, RandomCrDrawsDistinctPairs) {
  const Graph g = BuildGenerator("er", ParamList{{"n", "24"}}, 2);
  const auto inst =
      SampleInstance("random-cr", g, ParamList{{"pairs", "5"}}, 6);
  EXPECT_TRUE(inst.use_cr);
  EXPECT_EQ(inst.cr.NumRequests(), 10);  // 5 symmetric pairs
  std::set<std::pair<NodeId, NodeId>> seen;
  for (NodeId v = 0; v < inst.cr.NumNodes(); ++v) {
    for (const NodeId w : inst.cr.requests[static_cast<std::size_t>(v)]) {
      EXPECT_NE(v, w);
      const auto key = std::minmax(v, w);
      seen.insert({key.first, key.second});
    }
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(SamplerTest, CornersSpanTheMetric) {
  // On a path, the farthest-point sweep must reach both halves: the single
  // corners-cr request spans at least half the path regardless of the
  // random start node.
  const Graph g = BuildGenerator("path", ParamList{{"n", "30"}}, 1);
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const auto inst =
        SampleInstance("corners-cr", g, ParamList{{"pairs", "1"}}, seed);
    NodeId a = kNoNode;
    NodeId b = kNoNode;
    for (NodeId v = 0; v < inst.cr.NumNodes(); ++v) {
      if (!inst.cr.requests[static_cast<std::size_t>(v)].empty()) {
        (a == kNoNode ? a : b) = v;
      }
    }
    ASSERT_NE(a, kNoNode);
    ASSERT_NE(b, kNoNode);
    EXPECT_GE(std::abs(a - b), 15) << "seed " << seed;
  }
}

TEST(SamplerTest, CornersIcStripesLabels) {
  const Graph g = BuildGenerator("grid", ParamList{{"rows", "6"},
                                                   {"cols", "6"}},
                                 4);
  const auto inst = SampleInstance(
      "corners-ic", g, ParamList{{"k", "3"}, {"tpc", "2"}}, 4);
  EXPECT_EQ(inst.ic.NumTerminals(), 6);
  EXPECT_EQ(inst.ic.NumComponents(), 3);
  EXPECT_TRUE(inst.ic.IsMinimal());
}

TEST(SamplerTest, RejectsOversizedDraws) {
  const Graph g = BuildGenerator("path", ParamList{{"n", "4"}}, 1);
  EXPECT_THROW((void)SampleInstance(
                   "random-ic", g, ParamList{{"k", "3"}, {"tpc", "2"}}, 1),
               std::runtime_error);  // 6 terminals from 4 nodes
  EXPECT_THROW((void)SampleInstance(
                   "random-ic", g, ParamList{{"span", "9"}}, 1),
               std::runtime_error);  // span > n
  EXPECT_THROW(
      (void)SampleInstance("random-cr", g, ParamList{{"pairs", "7"}}, 1),
      std::runtime_error);  // > n(n-1)/2 distinct pairs
  EXPECT_THROW(
      (void)SampleInstance("corners-cr", g, ParamList{{"pairs", "3"}}, 1),
      std::runtime_error);  // 6 corners from 4 nodes
  EXPECT_THROW((void)SamplerRegistry::Get("frobnicate"), std::runtime_error);
}

// --- spec parsing and expansion ----------------------------------------------

TEST(WorkloadSpecTest, SweepsExpandToCrossProduct) {
  const Workload w = ExpandString(
      "seed 3\n"
      "generate grid rows=3 min_w=1 as mesh\n"
      "sweep cols 3 4\n"
      "sweep max_w 2 4 6\n"
      "sample random-ic spread k=2\n");
  ASSERT_EQ(w.cases.size(), 6u);
  EXPECT_EQ(w.seed, 3u);
  // Declaration order: first axis outermost, last axis fastest.
  EXPECT_EQ(w.cases[0].name, "mesh[cols=3,max_w=2]");
  EXPECT_EQ(w.cases[1].name, "mesh[cols=3,max_w=4]");
  EXPECT_EQ(w.cases[5].name, "mesh[cols=4,max_w=6]");
  for (const WorkloadCase& wc : w.cases) {
    EXPECT_EQ(wc.source, "generate grid");
    EXPECT_EQ(wc.graph.NumNodes(), 3 * (wc.name.find("cols=3") !=
                                                std::string::npos
                                            ? 3
                                            : 4));
    ASSERT_EQ(wc.instances.size(), 1u);
    EXPECT_EQ(wc.instances[0].name, "spread");
    EXPECT_EQ(wc.instances[0].ic.NumComponents(), 2);
  }
}

TEST(WorkloadSpecTest, ExpansionIsDeterministic) {
  const std::string text =
      "seed 17\n"
      "generate er n=30 p=0.1 as sparse\n"
      "sample random-ic spread k=2\n"
      "sample random-cr links pairs=2\n";
  const Workload a = ExpandString(text);
  const Workload b = ExpandString(text);
  ASSERT_EQ(a.cases.size(), b.cases.size());
  ASSERT_EQ(a.cases[0].graph.NumEdges(), b.cases[0].graph.NumEdges());
  for (EdgeId e = 0; e < a.cases[0].graph.NumEdges(); ++e) {
    EXPECT_EQ(a.cases[0].graph.GetEdge(e), b.cases[0].graph.GetEdge(e));
  }
  EXPECT_EQ(a.cases[0].instances[0].ic.labels,
            b.cases[0].instances[0].ic.labels);
  EXPECT_EQ(a.cases[0].instances[1].cr.requests,
            b.cases[0].instances[1].cr.requests);

  // A different workload seed redraws the topology.
  const Workload c = ExpandString(
      "seed 18\n"
      "generate er n=30 p=0.1 as sparse\n"
      "sample random-ic spread k=2\n"
      "sample random-cr links pairs=2\n");
  bool differs = a.cases[0].graph.NumEdges() != c.cases[0].graph.NumEdges();
  for (EdgeId e = 0; !differs && e < a.cases[0].graph.NumEdges(); ++e) {
    differs = !(a.cases[0].graph.GetEdge(e) == c.cases[0].graph.GetEdge(e));
  }
  EXPECT_TRUE(differs);
}

TEST(WorkloadSpecTest, SaltSweepReplicatesInstances) {
  const Workload w = ExpandString(
      "generate er n=30 p=0.1\n"
      "sample random-ic spread k=2\n"
      "sweep salt 0 1 2\n");
  ASSERT_EQ(w.cases.size(), 1u);
  ASSERT_EQ(w.cases[0].instances.size(), 3u);
  EXPECT_EQ(w.cases[0].instances[0].name, "spread[salt=0]");
  EXPECT_EQ(w.cases[0].instances[2].name, "spread[salt=2]");
  EXPECT_NE(w.cases[0].instances[0].ic.labels,
            w.cases[0].instances[1].ic.labels);
  EXPECT_NE(w.cases[0].instances[1].ic.labels,
            w.cases[0].instances[2].ic.labels);
}

TEST(WorkloadSpecTest, MixedSourcesAndExplicitInstances) {
  const Workload w = ExpandString(
      "graph 4 as tiny\n"
      "edge 0 1 2\n"
      "edge 1 2 3\n"
      "edge 2 3 1\n"
      "ic ends\n"
      "terminal 0 1\n"
      "terminal 3 1\n"
      "generate star n=5\n"
      "cr hub\n"
      "pair 1 4\n");
  ASSERT_EQ(w.cases.size(), 2u);
  EXPECT_EQ(w.cases[0].name, "tiny");
  EXPECT_EQ(w.cases[0].source, "graph");
  EXPECT_EQ(w.cases[1].name, "star");
  ASSERT_EQ(w.cases[1].instances.size(), 1u);
  EXPECT_TRUE(w.cases[1].instances[0].use_cr);
}

TEST(WorkloadSpecTest, RejectsMalformedSpecs) {
  // Each entry: (spec text, reason it must be rejected).
  const char* bad[] = {
      "generate er n=30\n",                       // case without instances
      "generate er n=30\nsweep n 30 30\n"
      "sample random-ic s\n",                     // duplicate sweep value
      "generate er n=30\nsweep n 32 33\n"
      "sweep n 34 35\nsample random-ic s\n",      // duplicate sweep axis
      "generate er n=30\nsweep n 40 50\n"
      "sample random-ic s\n"
      "generate er n=30\nsweep n 40 50\n"
      "sample random-ic s\n",                     // colliding case names
      "generate er n=30\nsweep p 2\n"
      "sample random-ic s\n",                     // sweep value out of range
      "generate er n=30\nsweep frob 1\n"
      "sample random-ic s\n",                     // unknown sweep param
      "generate er n=30\n"
      "ic a\nterminal 0 1\nterminal 1 1\n"
      "sweep n 40\n",                             // sweep after explicit inst
      "sweep n 40\n",                             // sweep before any source
      "generate er p=0.5 p=0.6\n"
      "sample random-ic s\n",                     // duplicate fixed param
      "generate frobnicate\nsample random-ic s\n",  // unknown family
      "generate er n=30\nsample frobnicate s\n",    // unknown sampler
      "generate er n=30\nsample random-ic a\n"
      "sample random-ic a\n",                     // duplicate instance name
      "generate er nonsense\nsample random-ic s\n",  // not key=value
      "graph 3\nedge 0 1 1\nedge 0 1 2\n"
      "ic a\nterminal 0 1\nterminal 1 1\n",       // duplicate edge
      "graph 3\nedge 0 1 1\nedge 1 0 2\n"
      "ic a\nterminal 0 1\nterminal 1 1\n",       // parallel edge, reversed
      "seed 1\nseed 2\ngraph 2\nedge 0 1 1\n"
      "ic a\nterminal 0 1\nterminal 1 1\n",       // duplicate seed
      "seed 0\ngraph 2\nedge 0 1 1\n"
      "ic a\nterminal 0 1\nterminal 1 1\n",       // 0 = batch sentinel
      "graph 2\nedge 0 1 1\nseed 1\n"
      "ic a\nterminal 0 1\nterminal 1 1\n",       // seed after a source
      "generate er n=10\nic a\nterminal 15 1\n",  // terminal beyond n
      "generate er n=10\ncr a\npair 0 12\n",      // pair beyond n
      "import webdav foo.stp\n",                  // unknown import format
      "import stp /nonexistent/x.stp\n",          // unreadable import
      "edge 0 1 2\n",                             // edge before graph
      "graph 0\n",                                // empty graph
      "graph 3\ngraph 3\nic a\nterminal 0 1\n",   // graph without instances
      "graph 3\nedge 0 3 1\nic a\nterminal 0 1\n",  // endpoint out of range
      "graph 3\nedge 1 1 1\nic a\nterminal 0 1\n",  // self-loop
      "graph 3\nedge 0 1 0\nic a\nterminal 0 1\n",  // weight < 1
      "graph 3\nedge 0 1 1\n",                   // no instances
      "graph 3\nedge 0 1 1\nic a\n",             // ic without terminals
      "graph 3\nedge 0 1 1\ncr a\n",             // cr without pairs
      "graph 3\nedge 0 1 1\nterminal 0 1\n",     // terminal outside ic
      "graph 3\nedge 0 1 1\ncr a\nterminal 0 1\n",  // terminal inside cr
      "graph 3\nedge 0 1 1\nic a\npair 0 1\n",      // pair inside ic
      "graph 3\nedge 0 1 1\nic a\nterminal 0 0\n",  // label < 1
      "graph 3\nedge 0 1 1\ncr a\npair 1 1\n",      // self-request
      "graph 3\nedge 0 1 1 9\nic a\nterminal 0 1\n",  // trailing tokens
      "graph 3\nfrobnicate\n",                   // unknown directive
      "graph 4294967299\nedge 0 1 1\nic a\nterminal 0 1\n",  // n > int
      "graph 3\nedge 0 1 1\nic a\nterminal 0 4294967297\n",  // label > int32
      "graph 3\nedge 0 1 1\nic a\nterminal 0 1\nterminal 0 2\n",  // dup node
      "graph 3\nedge 0 1 1\ncr a\npair 0 1\npair 1 0\n",  // duplicate pair
      "graph 3\nedge 0 1 1\nic a\nterminal 0 1\n"
      "ic a\nterminal 1 1\n",                    // duplicate instance name
      "graph 3\nedge 0 1 1\nic a\nterminal 0 1\n"
      "cr a\npair 0 1\n",                        // ... across input forms
      "graph 3as foo\nedge 0 1 1\nic a\nterminal 0 1\n",  // glued token
      "graph 3\nedge 0 1 +1\nic a\nterminal 0 1\n",    // leading '+'
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)ExpandString(text), std::runtime_error) << text;
  }
}

TEST(WorkloadSpecTest, ErrorsCarryOriginAndLine) {
  try {
    (void)ExpandString("graph 3\nedge 0 9 1\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("<string>:2"), std::string::npos)
        << e.what();
  }
  try {
    (void)ExpandString("generate grid rows=3 cols=3\nsweep rows 5000\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("<string>:2"), std::string::npos)
        << e.what();
  }
  // Expansion-time failures (sampler too large for the generated graph)
  // must also name the offending line.
  try {
    (void)ExpandString(
        "generate path n=4\nsample random-ic big k=4 tpc=2\n");
    FAIL() << "expected expansion error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("<string>:2"), std::string::npos)
        << e.what();
  }
}

TEST(WorkloadSpecTest, LoadRejectsMissingFile) {
  EXPECT_THROW((void)LoadWorkloadSpec("/nonexistent/path.dsf"),
               std::runtime_error);
}

TEST(WorkloadSpecTest, ParsesBothInstanceFormsAndCrlfLineEndings) {
  // One hand-written graph with both input forms (DSF-IC terminals, DSF-CR
  // pairs). Text authored on Windows, or arriving over the wire from a
  // CRLF-framing client, ends every line with "\r\n"; the shared line
  // reader (common/text.hpp) strips the '\r' before tokenization, so the
  // parse is identical to the LF version, including names taken from the
  // end of a line (where the '\r' would otherwise embed itself).
  const std::string lf =
      "seed 7\n"
      "graph 4 as net\n"
      "edge 0 1 3   # with a trailing comment\n"
      "edge 1 2 1\n"
      "edge 2 3 4\n"
      "ic pairs\n"
      "terminal 0 1\n"
      "terminal 3 1\n"
      "cr orders\n"
      "pair 1 3\n";
  std::string crlf;
  for (const char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  const Workload a = ExpandString(lf);
  const Workload b = ExpandString(crlf);
  ASSERT_EQ(b.cases.size(), 1u);
  EXPECT_EQ(b.cases[0].name, "net");
  EXPECT_EQ(b.cases[0].graph.NumNodes(), 4);
  EXPECT_EQ(b.cases[0].graph.NumEdges(), 3);
  EXPECT_TRUE(b.cases[0].graph.Finalized());
  EXPECT_EQ(b.cases[0].graph.GetEdge(0).w, 3);
  const auto& ai = a.cases[0].instances;
  const auto& bi = b.cases[0].instances;
  ASSERT_EQ(bi.size(), 2u);
  // Names parsed from line ends must be byte-identical, not "pairs\r".
  EXPECT_EQ(bi[0].name, "pairs");
  EXPECT_EQ(bi[0].name, ai[0].name);
  EXPECT_EQ(bi[1].name, ai[1].name);
  EXPECT_FALSE(bi[0].use_cr);
  EXPECT_EQ(bi[0].ic.NumTerminals(), 2);
  EXPECT_EQ(bi[0].ic.LabelOf(0), 1);
  EXPECT_EQ(bi[0].ic.labels, ai[0].ic.labels);
  EXPECT_TRUE(bi[1].use_cr);
  EXPECT_EQ(bi[1].cr.NumRequests(), 2);  // symmetric
  EXPECT_EQ(bi[1].cr.requests, ai[1].cr.requests);
}

// Two edges whose path sum overflows Weight (2e18 + 8e18): solvers used to
// report a negative forest weight as feasible. Weights past kMaxEdgeWeight
// fail at their line; the cap itself is accepted.
TEST(WorkloadSpecTest, RejectsEdgeWeightsPastTheCap) {
  try {
    (void)ExpandString(
        "graph 3\n"
        "edge 0 1 2000000000000000000\n"
        "edge 1 2 8000000000000000000\n"
        "ic a\nterminal 0 1\nterminal 2 1\n");
    FAIL() << "expected weight-range error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("<string>:2"), std::string::npos)
        << e.what();
  }
  const auto one_edge = [](Weight w) {
    return "graph 2\nedge 0 1 " + std::to_string(w) +
           "\nic a\nterminal 0 1\nterminal 1 1\n";
  };
  EXPECT_THROW((void)ExpandString(one_edge(kMaxEdgeWeight + 1)),
               std::runtime_error);
  const Workload w = ExpandString(one_edge(kMaxEdgeWeight));
  EXPECT_EQ(w.cases[0].graph.TotalWeight(), kMaxEdgeWeight);
}

TEST(WorkloadSpecTest, BuildRequestsIsSolverMajor) {
  const Workload w = ExpandString(
      "generate grid rows=3 cols=3\n"
      "sample random-ic a k=2\n"
      "sample random-cr b pairs=2\n"
      "generate path n=6\n"
      "ic ends\n"
      "terminal 0 1\n"
      "terminal 5 1\n");
  const std::vector<std::string> solvers = {"gw-moat", "mst-prune"};
  const RequestMatrix matrix = BuildRequests(w, solvers, {});
  ASSERT_EQ(matrix.requests.size(), 6u);  // 2 solvers x 3 instances
  EXPECT_EQ(matrix.requests[0].solver, "gw-moat");
  EXPECT_EQ(matrix.requests[3].solver, "mst-prune");
  for (std::size_t i = 0; i < matrix.requests.size(); ++i) {
    const auto c = static_cast<std::size_t>(matrix.case_index[i]);
    EXPECT_EQ(matrix.requests[i].graph, &w.cases[c].graph);
    const auto j = static_cast<std::size_t>(matrix.instance_index[i]);
    EXPECT_EQ(matrix.requests[i].use_cr, w.cases[c].instances[j].use_cr);
  }
}

TEST(WorkloadSpecTest, EndToEndSolveOnGeneratedSweep) {
  const Workload w = ExpandString(
      "seed 5\n"
      "generate grid rows=3 min_w=1 max_w=4\n"
      "sweep cols 3 4\n"
      "sample random-ic spread k=2\n");
  const std::vector<std::string> solvers = {"gw-moat", "dist-det"};
  const RequestMatrix matrix = BuildRequests(w, solvers, {});
  BatchOptions opt;
  opt.master_seed = w.seed;
  BatchEngine engine(opt);
  const auto results = engine.Run(matrix.requests);
  ASSERT_EQ(results.size(), 4u);
  for (const SolveResult& r : results) {
    EXPECT_TRUE(r.feasible) << r.solver;
    EXPECT_GT(r.weight, 0);
  }
}

// --- importers ---------------------------------------------------------------

constexpr char kTinyStp[] =
    "33D32945 STP File, STP Format Version 1.0\n"
    "SECTION Comment\n"
    "Name \"tiny\"\n"
    "END\n"
    "SECTION Graph\n"
    "Nodes 4\n"
    "Edges 5\n"
    "E 1 2 3\n"
    "E 2 3 1\n"
    "E 3 4 2\n"
    "E 1 4 7\n"
    "E 4 1 5\n"  // duplicate of {0,3}: keeps the minimum weight 5
    "END\n"
    "SECTION Terminals\n"
    "Terminals 2\n"
    "T 1\n"
    "T 4\n"
    "END\n"
    "EOF\n";

TEST(ImportTest, SteinLibGraphAndTerminals) {
  std::istringstream in(kTinyStp);
  const ImportedWorkload w = ParseSteinLib(in, "<stp>");
  EXPECT_EQ(w.graph.NumNodes(), 4);
  EXPECT_EQ(w.graph.NumEdges(), 4);  // duplicate collapsed
  Weight w03 = 0;
  for (const Edge& e : w.graph.Edges()) {
    const auto key = std::minmax(e.u, e.v);
    if (key.first == 0 && key.second == 3) w03 = e.w;
  }
  EXPECT_EQ(w03, 5);  // min of 7 and 5
  ASSERT_TRUE(w.has_terminals);
  EXPECT_EQ(w.terminals.NumTerminals(), 2);
  EXPECT_EQ(w.terminals.NumComponents(), 1);  // one label: a tree instance
  EXPECT_TRUE(w.terminals.IsTerminal(0));     // T 1 is node 0 (1-based input)
  EXPECT_TRUE(w.terminals.IsTerminal(3));
}

TEST(ImportTest, SteinLibAcceptsCrlfLineEndings) {
  // Published SteinLib archives unpack with Windows line endings on some
  // mirrors; the shared line reader strips the '\r' before tokenization.
  std::string crlf;
  for (const char c : std::string(kTinyStp)) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  std::istringstream in(crlf);
  const ImportedWorkload w = ParseSteinLib(in, "<stp>");
  EXPECT_EQ(w.graph.NumNodes(), 4);
  EXPECT_EQ(w.graph.NumEdges(), 4);
  ASSERT_TRUE(w.has_terminals);
  EXPECT_EQ(w.terminals.NumTerminals(), 2);
}

TEST(ImportTest, SteinLibRejectsMalformed) {
  const char* bad[] = {
      "",                                                    // empty
      "not an stp file\n",                                   // bad magic
      "33D32945 STP\nSECTION Graph\nNodes 2\nEdges 1\n"
      "E 1 2 1\nEND\n",                                      // missing EOF
      "33D32945 STP\nSECTION Graph\nNodes 2\nEdges 2\n"
      "E 1 2 1\nEND\nEOF\n",                                 // count mismatch
      "33D32945 STP\nSECTION Graph\nNodes 2\nEdges 1\n"
      "E 1 3 1\nEND\nEOF\n",                                 // node beyond n
      "33D32945 STP\nSECTION Graph\nNodes 2\nEdges 1\n"
      "E 1 2 0\nEND\nEOF\n",                                 // weight < 1
      "33D32945 STP\nSECTION Graph\nNodes 2\nEdges 1\n"
      "E 1 2 1\nEND\nSECTION Terminals\nTerminals 2\nT 1\n"
      "END\nEOF\n",                                          // t mismatch
      "33D32945 STP\nSECTION Graph\nNodes 2\nEdges 1\n"
      "E 1 2 1\nfrob\nEND\nEOF\n",                           // unknown keyword
      "33D32945 STP\nSECTION Graph\nNodes 2\nEdges 1\n"
      "E 1 2 7x\nEND\nEOF\n",                                // weight typo
      "33D32945 STP\nSECTION Graph\nNodes 2\nEdges 1\n"
      "E 1 2 1 9\nEND\nEOF\n",                               // extra token
      "33D32945 STP\nSECTION Graph\nNodes 2\nEdges 1\n"
      "E 1 2 +1\nEND\nEOF\n",                                // leading '+'
  };
  for (const char* text : bad) {
    std::istringstream in(text);
    EXPECT_THROW((void)ParseSteinLib(in, "<stp>"), std::runtime_error)
        << text;
  }
}

TEST(ImportTest, SteinLibRejectsEdgeWeightsPastTheCap) {
  const auto stp = [](const std::string& w01, const std::string& w12) {
    return "33D32945 STP\nSECTION Graph\nNodes 3\nEdges 2\nE 1 2 " + w01 +
           "\nE 2 3 " + w12 + "\nEND\nEOF\n";
  };
  std::istringstream bad(stp("2000000000000000000", "8000000000000000000"));
  try {
    (void)ParseSteinLib(bad, "<stp>");
    FAIL() << "expected weight-range error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("<stp>:5"), std::string::npos)
        << e.what();
  }
  const std::string cap = std::to_string(kMaxEdgeWeight);
  std::istringstream good(stp(cap, cap));
  EXPECT_EQ(ParseSteinLib(good, "<stp>").graph.TotalWeight(),
            2 * kMaxEdgeWeight);
}

TEST(ImportTest, DimacsGraph) {
  std::istringstream in(
      "c a DIMACS-style graph\n"
      "p edge 5 5\n"
      "e 1 2 4\n"
      "e 2 3\n"      // weight defaults to 1
      "a 3 4 2\n"    // arcs are undirected here
      "a 4 3 6\n"    // reverse restatement: min weight wins
      "e 4 5 3\n");
  const ImportedWorkload w = ParseDimacs(in, "<dimacs>");
  EXPECT_EQ(w.graph.NumNodes(), 5);
  EXPECT_EQ(w.graph.NumEdges(), 4);
  EXPECT_FALSE(w.has_terminals);
  Weight w23 = 0;
  Weight w12 = 0;
  for (const Edge& e : w.graph.Edges()) {
    const auto key = std::minmax(e.u, e.v);
    if (key.first == 2 && key.second == 3) w23 = e.w;
    if (key.first == 1 && key.second == 2) w12 = e.w;
  }
  EXPECT_EQ(w23, 2);
  EXPECT_EQ(w12, 1);
}

TEST(ImportTest, DimacsRejectsMalformed) {
  const char* bad[] = {
      "e 1 2 1\n",                       // edge before header
      "c nothing\n",                     // no header
      "p edge 2 1\np edge 2 1\ne 1 2 1\ne 1 2 1\n",  // duplicate header
      "p edge 2 1\ne 1 3 1\n",           // endpoint beyond n
      "p edge 2 1\ne 1 2 0\n",           // weight < 1
      "p edge 2 2\ne 1 2 1\n",           // count mismatch
      "p edge 2 1\nq 1 2 1\n",           // unknown line
      "p edge 2 1\ne 1 2 5x\n",          // weight typo truncated
      "p edge 2 1\ne 1 2 x\n",           // non-numeric weight
      "p edge 2 1\ne 1 2 1 9\n",         // extra token
      "p edge 2 1 9\ne 1 2 1\n",         // extra header token
      "p edge 2 1\ne 1 2 +1\n",          // leading '+'
  };
  for (const char* text : bad) {
    std::istringstream in(text);
    EXPECT_THROW((void)ParseDimacs(in, "<dimacs>"), std::runtime_error)
        << text;
  }
}

TEST(ImportTest, DimacsRejectsEdgeWeightsPastTheCap) {
  std::istringstream bad(
      "p edge 3 2\n"
      "a 1 2 2000000000000000000\n"
      "a 2 3 8000000000000000000\n");
  try {
    (void)ParseDimacs(bad, "<dimacs>");
    FAIL() << "expected weight-range error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("<dimacs>:2"), std::string::npos)
        << e.what();
  }
  std::istringstream good("p edge 2 1\ne 1 2 " +
                          std::to_string(kMaxEdgeWeight) + "\n");
  EXPECT_EQ(ParseDimacs(good, "<dimacs>").graph.TotalWeight(),
            kMaxEdgeWeight);
}

TEST(ImportTest, StpLoadsAsSingleCaseWorkload) {
  const std::string path = ::testing::TempDir() + "/dsf_tiny_test.stp";
  {
    std::ofstream out(path);
    out << kTinyStp;
  }
  const Workload w = LoadWorkload(path);
  ASSERT_EQ(w.cases.size(), 1u);
  EXPECT_EQ(w.cases[0].name, "dsf_tiny_test");
  ASSERT_EQ(w.cases[0].instances.size(), 1u);
  EXPECT_EQ(w.cases[0].instances[0].name, "terminals");
  EXPECT_EQ(w.cases[0].instances[0].ic.NumTerminals(), 2);
}

// --- the new adversarial families --------------------------------------------

TEST(GeneratorRegistryTest, ExpanderFarPairsPlantsEndpointsOnTails) {
  // pairs=3, tail=8, core=32: endpoints are ids 0..5, each the tip of a
  // tail-long path into the core, so total n = 6 * 8 + 32.
  const Graph g = BuildGenerator(
      "expander-far-pairs",
      ParamList{{"pairs", "3"}, {"tail", "8"}, {"core", "32"}}, 3);
  EXPECT_EQ(g.NumNodes(), 6 * 8 + 32);
  for (NodeId endpoint = 0; endpoint < 6; ++endpoint) {
    EXPECT_EQ(g.Neighbors(endpoint).size(), 1u)
        << "endpoint " << endpoint << " must be a tail tip";
  }
}

TEST(GeneratorRegistryTest, PowerLawGrowsHubs) {
  const Graph g =
      BuildGenerator("power-law", ParamList{{"n", "200"}, {"m", "2"}}, 11);
  EXPECT_EQ(g.NumNodes(), 200);
  std::size_t max_degree = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    max_degree = std::max(max_degree, g.Neighbors(v).size());
  }
  // Preferential attachment concentrates degree: with m=2 the heaviest hub
  // sits far above the ~4 average degree for any seed.
  EXPECT_GE(max_degree, 8u);
}

// --- churn traces and the `churn` directive ----------------------------------

std::string TraceToString(const ChurnTrace& trace) {
  std::ostringstream os;
  WriteChurnTrace(os, trace);
  return os.str();
}

TEST(ChurnTraceTest, WriteParseWriteIsBitIdentical) {
  const ChurnTrace trace = SampleChurnTrace(60, 0, 6, 5, 2, 99);
  const std::string once = TraceToString(trace);
  std::istringstream in(once);
  const ChurnTrace parsed = ParseChurnTrace(in, "<mem>");
  EXPECT_EQ(TraceToString(parsed), once);
  EXPECT_EQ(parsed.base.NumTerminals(), trace.base.NumTerminals());
  ASSERT_EQ(parsed.steps.size(), trace.steps.size());
  // Replayed states match the original at every step depth.
  for (int k = 0; k <= static_cast<int>(trace.steps.size()); ++k) {
    const IcInstance a = trace.StateAt(k);
    const IcInstance b = parsed.StateAt(k);
    ASSERT_EQ(a.Terminals(), b.Terminals()) << "step " << k;
    for (const NodeId v : a.Terminals()) {
      EXPECT_EQ(a.LabelOf(v), b.LabelOf(v)) << "step " << k;
    }
  }
}

TEST(ChurnTraceTest, ParserRejectsMalformedWithOriginAndLine) {
  const auto error_of = [](const std::string& text) {
    std::istringstream in(text);
    try {
      (void)ParseChurnTrace(in, "<trace>");
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  // Wrong magic.
  EXPECT_NE(error_of("bogus 1\n").find("<trace>:1:"), std::string::npos);
  // Unsupported version.
  EXPECT_NE(error_of("dsf-churn 2\n").find("<trace>:1:"), std::string::npos);
  // Base terminals out of increasing node order (line 5).
  EXPECT_NE(error_of("dsf-churn 1\nnodes 10\nbase 2\nt 5 1\nt 3 1\n"
                     "steps 0\neof\n")
                .find("<trace>:5:"),
            std::string::npos);
  // Content after the trailer.
  EXPECT_NE(error_of("dsf-churn 1\nnodes 10\nbase 0\nsteps 0\neof\nx\n")
                .find("after eof"),
            std::string::npos);
  // Missing trailer.
  EXPECT_NE(error_of("dsf-churn 1\nnodes 10\nbase 0\nsteps 0\n")
                .find("eof"),
            std::string::npos);
  // A signed count (line 2).
  EXPECT_NE(error_of("dsf-churn 1\nnodes +10\nbase 0\nsteps 0\neof\n")
                .find("<trace>:2:"),
            std::string::npos);
}

TEST(WorkloadSpecTest, ChurnDirectiveReplaysTraceStates) {
  const ChurnTrace trace = SampleChurnTrace(50, 0, 5, 4, 2, 123);
  const std::string path = ::testing::TempDir() + "/dsf_churn_test.trace";
  SaveChurnTrace(path, trace);

  const Workload w = ExpandString(
      "generate er n=50 p=0.08 as base\n"
      "churn at0 " + path + "\n"
      "churn at4 " + path + " steps=4\n");
  ASSERT_EQ(w.cases.size(), 1u);
  ASSERT_EQ(w.cases[0].instances.size(), 2u);
  EXPECT_EQ(w.cases[0].instances[0].name, "at0");
  EXPECT_EQ(w.cases[0].instances[1].name, "at4");
  const IcInstance expect0 = trace.StateAt(0);
  const IcInstance expect4 = trace.StateAt(4);
  EXPECT_EQ(w.cases[0].instances[0].ic.Terminals(), expect0.Terminals());
  EXPECT_EQ(w.cases[0].instances[1].ic.Terminals(), expect4.Terminals());
}

TEST(WorkloadSpecTest, ChurnDirectiveRejectsBadUses) {
  const ChurnTrace trace = SampleChurnTrace(50, 0, 5, 4, 2, 123);
  const std::string path = ::testing::TempDir() + "/dsf_churn_test.trace";
  SaveChurnTrace(path, trace);

  // Before any case block.
  EXPECT_THROW((void)ExpandString("churn c " + path + "\n"),
               std::runtime_error);
  // Malformed steps= argument.
  EXPECT_THROW((void)ExpandString("generate er n=50\nchurn c " + path +
                                  " steps=abc\n"),
               std::runtime_error);
  // More steps than the trace holds.
  EXPECT_THROW((void)ExpandString("generate er n=50\nchurn c " + path +
                                  " steps=99\n"),
               std::runtime_error);
  // Node-count mismatch between trace (50) and case (40).
  EXPECT_THROW((void)ExpandString("generate er n=40\nchurn c " + path + "\n"),
               std::runtime_error);
}

// --- the committed suite corpus ----------------------------------------------

// Pins the exact shape of every checked-in SteinLib lookalike: a regenerated
// or hand-edited corpus changes these counts and must arrive together with a
// new suite baseline.
TEST(ImportTest, SuiteCorpusShapesArePinned) {
  struct Pin {
    const char* name;
    int n;
    EdgeId m;
    int terminals;
  };
  constexpr Pin kPins[] = {
      {"b_like_01", 50, 141, 9},  {"b_like_02", 50, 182, 9},
      {"c_like_01", 100, 357, 12}, {"c_like_02", 100, 461, 12},
      {"d_like_01", 160, 550, 16}, {"d_like_02", 160, 763, 16},
  };
  for (const Pin& pin : kPins) {
    const std::string path = std::string(DSF_SOURCE_DIR) +
                             "/scenarios/suite/" + pin.name + ".stp";
    const Workload w = LoadWorkload(path);
    ASSERT_EQ(w.cases.size(), 1u) << pin.name;
    EXPECT_EQ(w.cases[0].graph.NumNodes(), pin.n) << pin.name;
    EXPECT_EQ(w.cases[0].graph.NumEdges(), pin.m) << pin.name;
    ASSERT_EQ(w.cases[0].instances.size(), 1u) << pin.name;
    EXPECT_EQ(w.cases[0].instances[0].ic.NumTerminals(), pin.terminals)
        << pin.name;
  }
}

// The committed adversarial spec expands deterministically into the six
// generated instances the suite wall measures.
TEST(WorkloadSpecTest, CommittedAdversarialSpecExpands) {
  const Workload w = LoadWorkload(std::string(DSF_SOURCE_DIR) +
                                  "/scenarios/suite/adversarial.dsf");
  ASSERT_EQ(w.cases.size(), 3u);
  EXPECT_EQ(w.cases[0].name, "expander");
  EXPECT_EQ(w.cases[1].name, "powerlaw");
  EXPECT_EQ(w.cases[2].name, "er100");
  EXPECT_EQ(w.cases[0].instances.size(), 1u);
  EXPECT_EQ(w.cases[1].instances.size(), 2u);
  ASSERT_EQ(w.cases[2].instances.size(), 3u);
  // The churn replays share the trace's base population and drift apart as
  // steps apply.
  EXPECT_EQ(w.cases[2].instances[0].name, "churn0");
  EXPECT_EQ(w.cases[2].instances[0].ic.NumTerminals(), 16);
  EXPECT_EQ(w.cases[2].instances[2].name, "churn6");
}

TEST(ImportTest, SpecImportsStpWithSampledInstances) {
  const std::string path = ::testing::TempDir() + "/dsf_spec_test.stp";
  {
    std::ofstream out(path);
    out << kTinyStp;
  }
  const Workload w = ExpandString("import stp " + path +
                                  " as lib\n"
                                  "sample random-cr extra pairs=2\n");
  ASSERT_EQ(w.cases.size(), 1u);
  EXPECT_EQ(w.cases[0].name, "lib");
  ASSERT_EQ(w.cases[0].instances.size(), 2u);  // terminals + sampled
  EXPECT_EQ(w.cases[0].instances[0].name, "terminals");
  EXPECT_EQ(w.cases[0].instances[1].name, "extra");
  EXPECT_TRUE(w.cases[0].instances[1].use_cr);
}

}  // namespace
}  // namespace dsf
