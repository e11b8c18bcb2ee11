// `dsf` — command-line front end of the solver engine (DESIGN.md §3, §4).
//
// Loads a workload file (workload/spec.hpp: hand-written graphs, registry
// generators with sweep axes, SteinLib/DIMACS imports — each with named or
// sampled IC/CR instances), expands it into concrete cases, builds the
// case × instance × solver request matrix, executes it on the BatchEngine,
// and emits one JSON document with per-request results and batch
// aggregates. Exit status is 0 iff every output was feasible.
//
// The `serve`, `shard-router`, and `client` subcommands front the resident
// service layer (src/serve/, DESIGN.md §5): a persistent socket server with
// a canonical-hash result cache, a fault-tolerant router spreading requests
// over several such servers, and a line-protocol client for both. The
// `suite` subcommand runs the benchmark wall (src/suite/, DESIGN.md §9):
// manifest-driven corpus, per-solver baselines, and regression gating.
//
// Every mode's flags are one table in cli/flags.cpp; `dsf --help` and
// `dsf <mode> --help` print them.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "cli/flags.hpp"
#include "cli/json.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "solve/batch.hpp"
#include "solve/solver.hpp"
#include "solve/solver_spec.hpp"
#include "steiner/exact.hpp"
#include "suite/baseline.hpp"
#include "suite/check.hpp"
#include "suite/corpus.hpp"
#include "suite/manifest.hpp"
#include "suite/runner.hpp"
#include "workload/generators.hpp"
#include "workload/samplers.hpp"
#include "workload/spec.hpp"

namespace dsf {
namespace {

void PrintGenerators() {
  std::printf("generators (graph sources for 'generate <family> k=v ...'):\n");
  for (const auto name : GeneratorRegistry::Names()) {
    const GeneratorFamily& f = GeneratorRegistry::Get(name);
    std::printf("  %-14s %s\n", std::string(name).c_str(),
                std::string(f.description).c_str());
    for (const ParamSpec& p : f.params) {
      std::printf("      %s\n", DescribeParam(p).c_str());
    }
  }
  std::printf("\nsamplers (instances for 'sample <sampler> <name> k=v "
              "...'):\n");
  for (const auto name : SamplerRegistry::Names()) {
    const InstanceSampler& s = SamplerRegistry::Get(name);
    std::printf("  %-14s %s\n", std::string(name).c_str(),
                std::string(s.description).c_str());
    for (const ParamSpec& p : s.params) {
      std::printf("      %s\n", DescribeParam(p).c_str());
    }
  }
}

int RunCli(const CliArgs& args) {
  if (args.list_solvers) {
    for (const auto name : SolverRegistry::Names()) {
      const Solver& s = SolverRegistry::Get(name);
      std::printf("%-10s %s %s\n", std::string(name).c_str(),
                  s.Distributed() ? "[dist]" : "[cent]",
                  std::string(s.Description()).c_str());
    }
    return 0;
  }
  if (args.list_generators) {
    PrintGenerators();
    return 0;
  }
  WorkloadSpec spec = LoadWorkloadSpec(args.scenario_path);
  if (args.seed_set) spec.seed = args.seed;
  const Workload workload = ExpandWorkload(spec);

  // Solver selection: --solvers beats the scenario's `as` directive beats
  // "every registered solver". Specs are canonicalized up front so the JSON
  // lists the same strings the results (and the serve cache key) carry.
  std::vector<std::string> solver_names =
      args.solvers.empty() ? spec.solvers : args.solvers;
  if (solver_names.empty()) {
    for (const auto name : SolverRegistry::Names()) {
      solver_names.emplace_back(name);
    }
  }
  for (auto& name : solver_names) {
    name = ParseSolverSpec(name).Canonical();  // fail fast on bad specs
  }

  SolveOptions base;
  base.epsilon = static_cast<Real>(args.epsilon);
  base.repetitions = args.repetitions;
  base.prune = args.prune;
  base.validate = true;
  base.deadline_ms = args.deadline_ms;
  RequestMatrix matrix = BuildRequests(workload, solver_names, base);

  BatchOptions bopt;
  bopt.threads = args.threads;
  bopt.master_seed = spec.seed;
  BatchEngine engine(bopt);
  std::vector<SolveResult> results = engine.Run(matrix.requests);
  const BatchStats& stats = engine.LastStats();

  if (args.reference) {
    // The exact reference depends only on the (case, instance) cell, so it
    // is solved once per cell instead of once per cell x solver.
    std::vector<std::vector<Weight>> reference(workload.cases.size());
    for (std::size_t c = 0; c < workload.cases.size(); ++c) {
      const WorkloadCase& wc = workload.cases[c];
      reference[c].reserve(wc.instances.size());
      for (const WorkloadInstance& inst : wc.instances) {
        reference[c].push_back(ExactSteinerForestWeight(
            wc.graph, inst.use_cr ? CrToIc(inst.cr) : inst.ic));
      }
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      SolveResult& r = results[i];
      r.reference_weight =
          reference[static_cast<std::size_t>(matrix.case_index[i])]
                   [static_cast<std::size_t>(matrix.instance_index[i])];
      if (r.reference_weight > 0 && r.reference_weight < kInfWeight) {
        r.approx_ratio = static_cast<double>(r.weight) /
                         static_cast<double>(r.reference_weight);
      } else if (r.reference_weight == 0 && r.weight == 0) {
        r.approx_ratio = 1.0;
      }
    }
  }

  std::ofstream file;
  if (!args.json_path.empty()) {
    file.open(args.json_path);
    if (!file) {
      std::fprintf(stderr, "dsf: cannot write %s\n", args.json_path.c_str());
      return 2;
    }
  }
  std::ostream& out = args.json_path.empty() ? std::cout : file;

  JsonWriter json(out);
  json.BeginObject();
  json.Key("scenario");
  json.String(args.scenario_path);
  json.Key("seed");
  json.UInt(spec.seed);
  json.Key("cases");
  json.BeginArray();
  for (const WorkloadCase& wc : workload.cases) {
    json.BeginObject();
    json.Key("name");
    json.String(wc.name);
    json.Key("source");
    json.String(wc.source);
    json.Key("n");
    json.Int(wc.graph.NumNodes());
    json.Key("m");
    json.Int(wc.graph.NumEdges());
    json.Key("total_weight");
    json.Int(static_cast<long long>(wc.graph.TotalWeight()));
    json.Key("instances");
    json.Int(static_cast<long long>(wc.instances.size()));
    json.EndObject();
  }
  json.EndArray();
  json.Key("solvers");
  json.BeginArray();
  for (const auto& name : solver_names) json.String(name);
  json.EndArray();
  json.Key("results");
  json.BeginArray();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadCase& wc =
        workload.cases[static_cast<std::size_t>(matrix.case_index[i])];
    const WorkloadInstance& inst =
        wc.instances[static_cast<std::size_t>(matrix.instance_index[i])];
    json.BeginObject();
    WriteResultFields(json, wc, inst, results[i]);
    json.EndObject();
  }
  json.EndArray();
  json.Key("batch");
  json.BeginObject();
  json.Key("requests");
  json.Int(stats.requests);
  json.Key("threads");
  json.Int(engine.Threads());
  json.Key("infeasible");
  json.Int(stats.infeasible);
  json.Key("wall_ms");
  json.Double(stats.wall_ms);
  json.Key("instances_per_sec");
  json.Double(stats.instances_per_sec);
  json.Key("p50_ms");
  json.Double(stats.p50_ms);
  json.Key("p95_ms");
  json.Double(stats.p95_ms);
  json.EndObject();
  json.EndObject();
  out << "\n";
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "dsf: error writing JSON output%s%s\n",
                 args.json_path.empty() ? "" : " to ",
                 args.json_path.c_str());
    return 2;
  }

  if (!args.json_path.empty()) {
    std::printf("%-10s  %-18s %-14s %-5s %10s %8s %9s %8s\n", "solver",
                "case", "instance", "input", "weight", "ok", "rounds",
                "wall_ms");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      const WorkloadCase& wc =
          workload.cases[static_cast<std::size_t>(matrix.case_index[i])];
      const WorkloadInstance& inst =
          wc.instances[static_cast<std::size_t>(matrix.instance_index[i])];
      std::printf("%-10s  %-18s %-14s %-5s %10lld %8s %9ld %8.2f\n",
                  r.solver.c_str(), wc.name.c_str(), inst.name.c_str(),
                  inst.use_cr ? "cr" : "ic",
                  static_cast<long long>(r.weight),
                  r.feasible ? "yes" : "NO", r.stats.rounds, r.wall_ms);
    }
    std::printf("batch: %d requests, %d threads, %.1f inst/s, p50 %.2f ms, "
                "p95 %.2f ms -> %s\n",
                stats.requests, engine.Threads(), stats.instances_per_sec,
                stats.p50_ms, stats.p95_ms, args.json_path.c_str());
  }
  return stats.infeasible == 0 ? 0 : 1;
}

int RunSuiteCommand(const SuiteArgs& args) {
  if (!args.corpus_dir.empty()) {
    EmitSuiteCorpus(args.corpus_dir);
    std::printf("dsf suite: wrote %zu corpus files to %s\n",
                SuiteCorpusFiles().size(), args.corpus_dir.c_str());
    return 0;
  }

  const SuiteManifest manifest = LoadSuiteManifest(args.manifest_path);
  SuiteBaseline fresh = RunSuite(manifest, args.run);
  fresh.manifest = args.manifest_path;
  fresh.manifest_digest = SuiteDigest(manifest);
  for (const std::string& path : fresh.skipped_sources) {
    std::fprintf(stderr,
                 "dsf suite: note: optional source '%s' absent, skipped "
                 "(scripts/fetch_steinlib.sh fetches real sets)\n",
                 path.c_str());
  }

  if (!args.out_path.empty()) SaveSuiteBaseline(args.out_path, fresh);

  if (args.record) {
    SaveSuiteBaseline(args.baseline_path, fresh);
    std::printf("dsf suite: recorded %zu cells (%zu solvers x %zu instances)"
                " to %s [digest %s]\n",
                fresh.cells.size(), fresh.solvers.size(),
                fresh.solvers.empty()
                    ? static_cast<std::size_t>(0)
                    : fresh.cells.size() / fresh.solvers.size(),
                args.baseline_path.c_str(), fresh.manifest_digest.c_str());
    return 0;
  }
  if (args.check) {
    const SuiteBaseline committed = LoadSuiteBaseline(args.baseline_path);
    const SuiteCheckResult result = CompareBaselines(committed, fresh);
    std::fputs(result.report.c_str(), result.ok ? stdout : stderr);
    return result.ok ? 0 : 1;
  }

  // Plain run: emit the fresh baseline document.
  if (args.out_path.empty()) {
    std::fputs(SuiteBaselineToJson(fresh).c_str(), stdout);
  }
  return 0;
}

// Chaos harnesses that cannot edit the command line (CI matrix entries,
// wrapper scripts) arm the fault hook via DSF_FAULT.
std::string FaultSpecOrEnv(const std::string& spec) {
  const char* env = std::getenv("DSF_FAULT");
  return spec.empty() && env != nullptr ? env : spec;
}

// Parses argv[first..] against `mode` and runs it; an exception escaping
// either step exits 2 with the mode's name as its prefix.
int RunMode(const Mode& mode, int argc, char** argv, int first,
            const std::function<int()>& run) {
  try {
    const std::vector<std::string> args(argv + first, argv + argc);
    if (const auto status = ParseFlags(mode, args, std::cout, std::cerr)) {
      return *status;
    }
    return run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", mode.name.c_str(), e.what());
    return 2;
  }
}

}  // namespace
}  // namespace dsf

int main(int argc, char** argv) {
  const std::string mode = argc >= 2 ? argv[1] : "";
  if (mode == "serve") {
    dsf::ServeOptions options;
    return dsf::RunMode(dsf::ServeMode(options), argc, argv, 2, [&] {
      options.fault_spec = dsf::FaultSpecOrEnv(options.fault_spec);
      return dsf::RunServe(options);
    });
  }
  if (mode == "shard-router") {
    dsf::RouterOptions options;
    return dsf::RunMode(dsf::RouterMode(options), argc, argv, 2, [&] {
      options.fault_spec = dsf::FaultSpecOrEnv(options.fault_spec);
      return dsf::RunShardRouter(options);
    });
  }
  if (mode == "client") {
    dsf::ClientArgs args;
    return dsf::RunMode(dsf::ClientMode(args), argc, argv, 2,
                        [&] { return dsf::RunClient(args); });
  }
  if (mode == "suite") {
    dsf::SuiteArgs args;
    return dsf::RunMode(dsf::SuiteMode(args), argc, argv, 2,
                        [&] { return dsf::RunSuiteCommand(args); });
  }
  dsf::CliArgs args;
  return dsf::RunMode(dsf::CliMode(args), argc, argv, 1,
                      [&] { return dsf::RunCli(args); });
}
