#include "workload/spec.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/random.hpp"
#include "common/text.hpp"
#include "solve/solver_spec.hpp"
#include "steiner/moat.hpp"
#include "workload/churn.hpp"
#include "workload/generators.hpp"
#include "workload/import.hpp"

namespace dsf {

namespace {

// Hand-written `graph` blocks are serving inputs, not a bulk format; the cap
// exists so out-of-range node counts fail instead of truncating.
constexpr long long kMaxExplicitNodes = 10'000'000;
// On the largest accepted graph every path sum stays below kInfWeight, and
// its fixed-point image (ToFixed, the moat engine's radii) fits in Fixed.
static_assert(kMaxExplicitNodes * kMaxEdgeWeight < kInfWeight);
static_assert(kMaxExplicitNodes * kMaxEdgeWeight <=
              (std::numeric_limits<Fixed>::max() >> kFixedShift));
// Expansion guard rails: a mistyped sweep should fail loudly, not allocate
// the machine.
constexpr std::size_t kMaxSweepValues = 64;
constexpr std::size_t kMaxExpandedCases = 512;
constexpr std::size_t kMaxExpandedInstances = 1024;

// The pending (mutable) explicit instance: terminals/pairs accumulate here
// and are materialized when the instance closes.
struct PendingInstance {
  bool active = false;
  InstanceSpec spec;
};

std::string FileStem(const std::string& path) {
  const std::string stem = std::filesystem::path(path).stem().string();
  return stem.empty() ? "import" : stem;
}

// What the next `sweep` directive binds to.
enum class SweepTarget { kNone, kGenerator, kSampler };

struct ParserState {
  WorkloadSpec spec;
  std::string origin;
  bool seed_seen = false;
  PendingInstance pending;
  SweepTarget sweep_target = SweepTarget::kNone;
  // Unordered endpoint pairs of the current explicit case ("edge" hardening).
  std::set<std::pair<NodeId, NodeId>> edge_seen;

  [[nodiscard]] CaseSpec* Current() {
    return spec.cases.empty() ? nullptr : &spec.cases.back();
  }
};

void CheckInstanceName(ParserState& st, const std::string& name, int line) {
  for (const InstanceSpec& inst : st.Current()->instances) {
    if (inst.name == name) {
      FailAt(st.origin, line,
             "duplicate instance name '" + name + "' in this case block");
    }
  }
}

void FlushInstance(ParserState& st, int line) {
  if (!st.pending.active) return;
  InstanceSpec& inst = st.pending.spec;
  if (inst.kind == InstanceSpec::Kind::kExplicitCr) {
    if (inst.pairs.empty()) {
      FailAt(st.origin, line, "cr instance '" + inst.name + "' has no pairs");
    }
  } else {
    if (inst.terminals.empty()) {
      FailAt(st.origin, line,
             "ic instance '" + inst.name + "' has no terminals");
    }
  }
  st.Current()->instances.push_back(std::move(inst));
  st.pending = PendingInstance{};
}

// Closes the current case block before a new one starts (or at EOF).
// Imported cases may still gain their implicit "terminals" instance at
// expansion time, so their emptiness is checked there.
void CloseCase(ParserState& st, int line) {
  CaseSpec* cs = st.Current();
  if (cs == nullptr) return;
  FlushInstance(st, line);
  if (cs->instances.empty() && cs->kind != CaseSpec::Kind::kImportStp) {
    FailAt(st.origin, line,
           "case '" + cs->name + "' has no instances");
  }
  st.edge_seen.clear();
  st.sweep_target = SweepTarget::kNone;
}

// Schema of the directive the next `sweep` binds to, or nullptr.
std::span<const ParamSpec> SweepSchema(ParserState& st, std::string& owner) {
  if (st.sweep_target == SweepTarget::kGenerator) {
    const CaseSpec& cs = *st.Current();
    owner = cs.family;
    return GeneratorRegistry::Get(cs.family).params;
  }
  const InstanceSpec& inst = st.Current()->instances.back();
  owner = inst.sampler;
  return SamplerRegistry::Get(inst.sampler).params;
}

RawParams* SweepParams(ParserState& st) {
  if (st.sweep_target == SweepTarget::kGenerator) {
    return &st.Current()->params;
  }
  return &st.Current()->instances.back().params;
}

}  // namespace

WorkloadSpec ParseWorkloadSpec(std::istream& in, const std::string& origin) {
  ParserState st;
  st.origin = origin;
  st.spec.origin = origin;

  LineReader r(in, origin, '#');
  while (r.Next()) {
    const int line = r.Line();
    const std::string directive(r.Head());

    // Node range: fully checked here for explicit graphs; generated and
    // imported graphs only learn n at expansion time, which re-checks.
    const auto want_node = [&](const char* what) -> NodeId {
      const CaseSpec& cs = *st.Current();
      return static_cast<NodeId>(r.Int(
          what, 0,
          cs.kind == CaseSpec::Kind::kExplicit
              ? cs.n - 1
              : std::numeric_limits<NodeId>::max()));
    };
    // Optional `as <name>` tail of graph/import/generate lines.
    const auto alias = [&](std::string_view token, std::string& name) {
      if (token != "as") r.Fail("trailing tokens after '" + directive + "'");
      name = r.Word("name");
      r.End();
    };
    // Shared tail of generate/import/sample: `k=v`... plus optional
    // `as <name>` (case blocks only).
    const auto parse_params = [&](RawParams& params, std::string* name) {
      while (const auto token = r.Token()) {
        if (name != nullptr && *token == "as") {
          alias(*token, *name);
          return;
        }
        try {
          params.fixed.push_back(SplitKeyValue(std::string(*token)));
        } catch (const std::runtime_error& e) {
          r.Fail(e.what());
        }
      }
    };

    if (directive == "seed") {
      if (st.seed_seen) r.Fail("duplicate 'seed' directive");
      if (st.Current() != nullptr) {
        r.Fail("'seed' must precede the first graph source");
      }
      // 0 is the batch engine's "keep per-request seeds" sentinel
      // (solve/batch.hpp); letting it through would silently disable the
      // per-request seed derivation the CLI wires this value into.
      st.spec.seed = static_cast<std::uint64_t>(
          r.Int("seed", 1, std::numeric_limits<long long>::max()));
      r.End();
      st.seed_seen = true;
    } else if (directive == "as") {
      // Workload-level solver selection. Header position (like `seed`)
      // keeps the directive unambiguous: inside a case block `as` is the
      // aliasing token of generate/import lines.
      if (st.Current() != nullptr) {
        r.Fail("'as' must precede the first graph source");
      }
      if (!st.spec.solvers.empty()) r.Fail("duplicate 'as' directive");
      while (const auto token = r.Token()) {
        std::string why;
        if (!IsValidSolverSpec(*token, &why)) r.Fail(why);
        st.spec.solvers.emplace_back(*token);
      }
      if (st.spec.solvers.empty()) {
        r.Fail("expected at least one solver spec after 'as'");
      }
    } else if (directive == "graph") {
      CloseCase(st, line);
      CaseSpec cs;
      cs.kind = CaseSpec::Kind::kExplicit;
      cs.name = "graph";
      cs.line = line;
      // Range-checked before narrowing: 2^32+3 must not truncate to n=3.
      cs.n = r.Int("node count", 1, kMaxExplicitNodes);
      if (const auto token = r.Token()) alias(*token, cs.name);
      st.spec.cases.push_back(std::move(cs));
    } else if (directive == "generate") {
      CloseCase(st, line);
      const std::string family = r.Word("generator family");
      CaseSpec cs;
      cs.kind = CaseSpec::Kind::kGenerate;
      cs.name = family;
      cs.family = family;
      cs.line = line;
      // Fail fast on unknown families and bad fixed params; the combined
      // fixed + sweep assignment is validated again at expansion.
      const GeneratorFamily* f = nullptr;
      try {
        f = &GeneratorRegistry::Get(family);
      } catch (const std::runtime_error& e) {
        r.Fail(e.what());
      }
      parse_params(cs.params, &cs.name);
      try {
        (void)ValidateGeneratorParams(*f, cs.params.fixed);
      } catch (const std::runtime_error& e) {
        r.Fail(e.what());
      }
      st.spec.cases.push_back(std::move(cs));
      st.sweep_target = SweepTarget::kGenerator;
    } else if (directive == "import") {
      CloseCase(st, line);
      const std::string format = r.Word("import format (stp | dimacs)");
      if (format != "stp" && format != "dimacs") {
        r.Fail("unknown import format '" + format +
               "' (expected stp or dimacs)");
      }
      CaseSpec cs;
      cs.kind = format == "stp" ? CaseSpec::Kind::kImportStp
                                : CaseSpec::Kind::kImportDimacs;
      cs.path = r.Word("file path");
      cs.name = FileStem(cs.path);
      cs.line = line;
      if (const auto token = r.Token()) alias(*token, cs.name);
      st.spec.cases.push_back(std::move(cs));
    } else if (directive == "edge") {
      CaseSpec* cs = st.Current();
      if (cs == nullptr || cs->kind != CaseSpec::Kind::kExplicit) {
        r.Fail("'edge' outside a 'graph' block");
      }
      const NodeId u = want_node("endpoint");
      const NodeId v = want_node("endpoint");
      const Weight w = r.Int("edge weight", 1, kMaxEdgeWeight);
      r.End();
      if (u == v) r.Fail("self-loop");
      // Parallel edges would silently shadow each other in every solver
      // (only the lighter one can matter); reject both exact duplicates and
      // reversed restatements.
      const auto key = std::minmax(u, v);
      if (!st.edge_seen.insert({key.first, key.second}).second) {
        r.Fail("duplicate edge " + std::to_string(u) + " " +
               std::to_string(v));
      }
      cs->edges.push_back({u, v, w});
    } else if (directive == "ic" || directive == "cr") {
      if (st.Current() == nullptr) r.Fail("a graph source must come first");
      const std::string name = r.Word("instance name");
      r.End();
      FlushInstance(st, line);
      CheckInstanceName(st, name, line);
      st.pending.active = true;
      st.pending.spec.kind = directive == "cr"
                                 ? InstanceSpec::Kind::kExplicitCr
                                 : InstanceSpec::Kind::kExplicitIc;
      st.pending.spec.name = name;
      st.pending.spec.line = line;
      st.sweep_target = SweepTarget::kNone;
    } else if (directive == "terminal") {
      if (!st.pending.active ||
          st.pending.spec.kind != InstanceSpec::Kind::kExplicitIc) {
        r.Fail("'terminal' outside an ic instance");
      }
      const NodeId v = want_node("node");
      const auto label = static_cast<Label>(
          r.Int("label", 1, std::numeric_limits<Label>::max()));
      r.End();
      // A node holds exactly one label (Definition 2.2); letting a second
      // directive win silently would drop the first membership.
      for (const auto& [seen, _] : st.pending.spec.terminals) {
        if (seen == v) {
          r.Fail("node " + std::to_string(v) + " is already a terminal of '" +
                 st.pending.spec.name + "'");
        }
      }
      st.pending.spec.terminals.push_back({v, label});
    } else if (directive == "pair") {
      if (!st.pending.active ||
          st.pending.spec.kind != InstanceSpec::Kind::kExplicitCr) {
        r.Fail("'pair' outside a cr instance");
      }
      const NodeId u = want_node("node");
      const NodeId v = want_node("node");
      r.End();
      if (u == v) r.Fail("a node cannot request itself");
      for (const auto& [a, b] : st.pending.spec.pairs) {
        if ((a == u && b == v) || (a == v && b == u)) {
          r.Fail("duplicate pair in '" + st.pending.spec.name + "'");
        }
      }
      st.pending.spec.pairs.push_back({u, v});
    } else if (directive == "sample") {
      if (st.Current() == nullptr) r.Fail("a graph source must come first");
      FlushInstance(st, line);
      InstanceSpec inst;
      inst.kind = InstanceSpec::Kind::kSample;
      inst.sampler = r.Word("sampler name");
      inst.name = r.Word("instance name");
      inst.line = line;
      CheckInstanceName(st, inst.name, line);
      const InstanceSampler* s = nullptr;
      try {
        s = &SamplerRegistry::Get(inst.sampler);
      } catch (const std::runtime_error& e) {
        r.Fail(e.what());
      }
      parse_params(inst.params, nullptr);
      try {
        (void)ValidateSamplerParams(*s, inst.params.fixed);
      } catch (const std::runtime_error& e) {
        r.Fail(e.what());
      }
      st.Current()->instances.push_back(std::move(inst));
      st.sweep_target = SweepTarget::kSampler;
    } else if (directive == "churn") {
      if (st.Current() == nullptr) r.Fail("a graph source must come first");
      FlushInstance(st, line);
      InstanceSpec inst;
      inst.kind = InstanceSpec::Kind::kChurn;
      inst.name = r.Word("instance name");
      inst.path = r.Word("trace path");
      inst.line = line;
      CheckInstanceName(st, inst.name, line);
      if (const auto token = r.Token()) {
        // The only knob is the replay depth; k=v form keeps room for more.
        if (!token->starts_with("steps=")) {
          r.Fail("expected steps=<N> after the trace path, got '" +
                 std::string(*token) + "'");
        }
        const auto steps = ParseNumber<int>(token->substr(6));
        if (!steps || *steps < 0 || *steps > 1'000'000) {
          r.Fail("steps= needs an integer in [0, 1000000]");
        }
        inst.churn_steps = *steps;
        r.End();
      }
      st.Current()->instances.push_back(std::move(inst));
      st.sweep_target = SweepTarget::kNone;
    } else if (directive == "sweep") {
      if (st.Current() == nullptr || st.sweep_target == SweepTarget::kNone) {
        r.Fail(
            "'sweep' must directly follow the generate or sample directive "
            "it modifies");
      }
      SweepAxis axis;
      axis.param = r.Word("parameter name");
      axis.line = line;
      while (const auto value = r.Token()) axis.values.emplace_back(*value);
      if (axis.values.empty()) r.Fail("'sweep' needs at least one value");
      if (axis.values.size() > kMaxSweepValues) {
        r.Fail("at most " + std::to_string(kMaxSweepValues) +
               " values per sweep axis");
      }
      std::string owner;
      const auto schema = SweepSchema(st, owner);
      RawParams& params = *SweepParams(st);
      for (const auto& [key, _] : params.fixed) {
        if (key == axis.param) {
          r.Fail("parameter '" + axis.param + "' is both fixed and swept");
        }
      }
      for (const SweepAxis& other : params.sweeps) {
        if (other.param == axis.param) {
          r.Fail("duplicate sweep axis '" + axis.param + "'");
        }
      }
      std::set<std::string> distinct;
      for (const std::string& v : axis.values) {
        if (!distinct.insert(v).second) {
          r.Fail("duplicate sweep value '" + v + "'");
        }
        const std::vector<std::pair<std::string, std::string>> one{
            {axis.param, v}};
        try {
          // Validates key existence, kind, and range per value.
          (void)ValidateParams(owner, schema, one);
        } catch (const std::runtime_error& e) {
          r.Fail(e.what());
        }
      }
      params.sweeps.push_back(std::move(axis));
    } else {
      r.Fail("unknown directive '" + directive + "'");
    }
  }

  if (st.spec.cases.empty()) r.Fail("no graph source");
  CloseCase(st, r.Line());
  return st.spec;
}

WorkloadSpec LoadWorkloadSpec(const std::string& path) {
  // A bare SteinLib file is a complete workload on its own: one imported
  // case whose terminals become the single instance.
  if (path.size() > 4 && path.substr(path.size() - 4) == ".stp") {
    WorkloadSpec spec;
    spec.origin = path;
    CaseSpec cs;
    cs.kind = CaseSpec::Kind::kImportStp;
    cs.path = path;
    cs.name = FileStem(path);
    spec.cases.push_back(std::move(cs));
    return spec;
  }
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read scenario file: " + path);
  WorkloadSpec spec = ParseWorkloadSpec(in, path);
  spec.base_dir = std::filesystem::path(path).parent_path().string();
  return spec;
}

// --- expansion ---------------------------------------------------------------

namespace {

// Renders the swept-axis assignment of one combination, e.g. "[n=64,p=0.2]".
std::string SweepSuffix(const RawParams& params,
                        std::span<const std::size_t> idx) {
  if (params.sweeps.empty()) return "";
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < params.sweeps.size(); ++i) {
    if (i > 0) os << ",";
    os << params.sweeps[i].param << "=" << params.sweeps[i].values[idx[i]];
  }
  os << "]";
  return os.str();
}

// Fixed params plus the swept values of one combination.
std::vector<std::pair<std::string, std::string>> CombineParams(
    const RawParams& params, std::span<const std::size_t> idx) {
  auto raw = params.fixed;
  for (std::size_t i = 0; i < params.sweeps.size(); ++i) {
    raw.push_back({params.sweeps[i].param, params.sweeps[i].values[idx[i]]});
  }
  return raw;
}

// Iterates the cross-product of the sweep axes in declaration order (last
// axis fastest); calls fn(idx) for every combination.
template <typename Fn>
void ForEachCombination(const RawParams& params, Fn&& fn) {
  std::vector<std::size_t> idx(params.sweeps.size(), 0);
  while (true) {
    fn(std::span<const std::size_t>(idx));
    std::size_t axis = idx.size();
    while (axis > 0) {
      --axis;
      if (++idx[axis] < params.sweeps[axis].values.size()) break;
      idx[axis] = 0;
      if (axis == 0) return;
    }
    if (idx.empty()) return;
  }
}

std::string ResolveImportPath(const WorkloadSpec& spec, const CaseSpec& cs) {
  const std::filesystem::path p(cs.path);
  if (p.is_absolute() || spec.base_dir.empty()) return cs.path;
  return (std::filesystem::path(spec.base_dir) / p).string();
}

}  // namespace

Workload ExpandWorkload(const WorkloadSpec& spec) {
  Workload out;
  out.seed = spec.seed;
  std::set<std::string> case_names;

  for (std::size_t block = 0; block < spec.cases.size(); ++block) {
    const CaseSpec& cs = spec.cases[block];
    // All randomness of a block derives from its declared position, not
    // from the expansion counter: sweeping a parameter never reshuffles the
    // random stream, so `sweep salt ...` is the replication axis and value
    // sweeps stay maximally correlated across variants.
    const std::uint64_t case_seed = DeriveSeed(spec.seed, block);

    // An imported topology is identical across (hypothetical) sweep
    // combinations; load it once per block.
    ImportedWorkload imported;
    if (cs.kind == CaseSpec::Kind::kImportStp) {
      imported = LoadSteinLib(ResolveImportPath(spec, cs));
    } else if (cs.kind == CaseSpec::Kind::kImportDimacs) {
      imported = LoadDimacs(ResolveImportPath(spec, cs));
    }

    ForEachCombination(cs.params, [&](std::span<const std::size_t> idx) {
      if (out.cases.size() >= kMaxExpandedCases) {
        FailAt(spec.origin, cs.line,
               "workload expands to more than " +
                   std::to_string(kMaxExpandedCases) + " cases");
      }
      WorkloadCase wc;
      wc.name = cs.name + SweepSuffix(cs.params, idx);
      switch (cs.kind) {
        case CaseSpec::Kind::kExplicit:
          wc.source = "graph";
          wc.graph = MakeGraph(static_cast<int>(cs.n), cs.edges);
          break;
        case CaseSpec::Kind::kGenerate: {
          wc.source = "generate " + cs.family;
          try {
            const GeneratorFamily& family = GeneratorRegistry::Get(cs.family);
            const ParamMap pm = ValidateGeneratorParams(
                family, CombineParams(cs.params, idx));
            wc.graph = BuildGenerator(family, pm, DeriveSeed(case_seed, 0));
          } catch (const std::runtime_error& e) {
            FailAt(spec.origin, cs.line, e.what());
          }
          break;
        }
        case CaseSpec::Kind::kImportStp:
          wc.source = "import stp " + cs.path;
          wc.graph = imported.graph;
          if (imported.has_terminals) {
            WorkloadInstance inst;
            inst.name = "terminals";
            inst.ic = imported.terminals;
            wc.instances.push_back(std::move(inst));
          }
          break;
        case CaseSpec::Kind::kImportDimacs:
          wc.source = "import dimacs " + cs.path;
          wc.graph = imported.graph;
          break;
      }

      if (!case_names.insert(wc.name).second) {
        FailAt(spec.origin, cs.line,
               "duplicate case name '" + wc.name +
                   "'; disambiguate with 'as <name>'");
      }

      const int n = wc.graph.NumNodes();
      for (std::size_t j = 0; j < cs.instances.size(); ++j) {
        const InstanceSpec& inst = cs.instances[j];
        const std::uint64_t inst_seed = DeriveSeed(case_seed, 1 + j);
        if (inst.kind == InstanceSpec::Kind::kSample) {
          try {
            const InstanceSampler& sampler = SamplerRegistry::Get(inst.sampler);
            ForEachCombination(
                inst.params, [&](std::span<const std::size_t> sidx) {
                  if (wc.instances.size() >= kMaxExpandedInstances) {
                    FailAt(spec.origin, inst.line,
                           "case expands to more than " +
                               std::to_string(kMaxExpandedInstances) +
                               " instances");
                  }
                  const ParamMap pm = ValidateSamplerParams(
                      sampler, CombineParams(inst.params, sidx));
                  WorkloadInstance built =
                      SampleInstance(sampler, wc.graph, pm, inst_seed);
                  built.name = inst.name + SweepSuffix(inst.params, sidx);
                  wc.instances.push_back(std::move(built));
                });
          } catch (const std::runtime_error& e) {
            // Re-wrapping an already-located error would stutter origins.
            if (std::string_view(e.what()).find(spec.origin + ":") == 0) {
              throw;
            }
            FailAt(spec.origin, inst.line, e.what());
          }
          continue;
        }
        if (inst.kind == InstanceSpec::Kind::kChurn) {
          try {
            const std::filesystem::path p(inst.path);
            const std::string resolved =
                (p.is_absolute() || spec.base_dir.empty())
                    ? inst.path
                    : (std::filesystem::path(spec.base_dir) / p).string();
            const ChurnTrace trace = LoadChurnTrace(resolved);
            if (trace.base.NumNodes() != n) {
              throw std::runtime_error(
                  "churn trace '" + inst.path + "' covers " +
                  std::to_string(trace.base.NumNodes()) +
                  " nodes but the graph has " + std::to_string(n));
            }
            if (inst.churn_steps >
                static_cast<int>(trace.steps.size())) {
              throw std::runtime_error(
                  "churn instance '" + inst.name + "' replays " +
                  std::to_string(inst.churn_steps) +
                  " steps but the trace has only " +
                  std::to_string(trace.steps.size()));
            }
            WorkloadInstance built;
            built.name = inst.name;
            built.ic = trace.StateAt(inst.churn_steps);
            wc.instances.push_back(std::move(built));
          } catch (const std::runtime_error& e) {
            // Trace parse errors already carry their own origin:line.
            if (std::string_view(e.what()).find(spec.origin + ":") == 0) {
              throw;
            }
            FailAt(spec.origin, inst.line, e.what());
          }
          continue;
        }
        // Explicit instances: node ranges were only provisionally checked at
        // parse time when the case's n was not yet known.
        WorkloadInstance built;
        built.name = inst.name;
        if (inst.kind == InstanceSpec::Kind::kExplicitCr) {
          for (const auto& [u, v] : inst.pairs) {
            if (u >= n || v >= n) {
              FailAt(spec.origin, inst.line,
                     "pair of instance '" + inst.name +
                         "' references a node >= n = " + std::to_string(n));
            }
          }
          built.use_cr = true;
          built.cr = MakeCrInstance(n, inst.pairs);
        } else {
          for (const auto& [v, label] : inst.terminals) {
            if (v >= n) {
              FailAt(spec.origin, inst.line,
                     "terminal of instance '" + inst.name +
                         "' references a node >= n = " + std::to_string(n));
            }
          }
          built.ic = MakeIcInstance(n, inst.terminals);
        }
        wc.instances.push_back(std::move(built));
      }

      if (wc.instances.empty()) {
        FailAt(spec.origin, cs.line,
               "case '" + wc.name + "' has no instances (the imported file "
               "carries no terminals; add 'sample' or explicit instances)");
      }
      out.cases.push_back(std::move(wc));
    });
  }
  return out;
}

Workload LoadWorkload(const std::string& path) {
  return ExpandWorkload(LoadWorkloadSpec(path));
}

RequestMatrix BuildRequests(const Workload& workload,
                            std::span<const std::string> solvers,
                            const SolveOptions& base) {
  RequestMatrix matrix;
  for (const std::string& solver : solvers) {
    for (std::size_t c = 0; c < workload.cases.size(); ++c) {
      const WorkloadCase& wc = workload.cases[c];
      for (std::size_t i = 0; i < wc.instances.size(); ++i) {
        const WorkloadInstance& inst = wc.instances[i];
        SolveRequest req;
        req.solver = solver;
        req.graph = &wc.graph;
        req.use_cr = inst.use_cr;
        if (inst.use_cr) {
          req.cr = inst.cr;
        } else {
          req.ic = inst.ic;
        }
        req.options = base;
        matrix.requests.push_back(std::move(req));
        matrix.case_index.push_back(static_cast<int>(c));
        matrix.instance_index.push_back(static_cast<int>(i));
      }
    }
  }
  return matrix;
}

}  // namespace dsf
