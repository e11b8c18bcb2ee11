// Batch-engine throughput: instances/sec and tail latency of the unified
// solver pipeline under the round-pool fan-out (solve/batch.hpp), at 1, 4,
// and 8 executors. The workload is one declarative spec (workload/spec.hpp)
// — two registry topologies, each with a salt-swept random-ic draw — so the
// bench, the CLI, and the tests all consume the same workload description.
// 12 instances x {dist-det, dist-rand, gw-moat, mst-prune} = 48 requests
// mixing heavy (simulated) and light (centralized) items. Results must be
// bit-identical across thread counts (pinned by tests/test_batch.cpp); the
// thread sweep differs only in wall clock. `bench/run_benchmarks.sh`
// records this series as BENCH_batch.json.
#include <benchmark/benchmark.h>

#include <sstream>
#include <string>
#include <vector>

#include "solve/batch.hpp"
#include "workload/spec.hpp"

namespace dsf {
namespace {

constexpr char kWorkloadSpec[] = R"(
seed 2014
generate er n=96 p=0.06 min_w=1 max_w=32 as sparse
sample random-ic spread k=3 tpc=2
sweep salt 0 1 2 3 4 5

generate grid rows=8 cols=8 min_w=1 max_w=9 as mesh
sample random-ic spread k=3 tpc=2
sweep salt 0 1 2 3 4 5
)";

void BM_BatchThroughput(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  std::istringstream in(kWorkloadSpec);
  const Workload workload =
      ExpandWorkload(ParseWorkloadSpec(in, "<bench_batch>"));
  const std::vector<std::string> solvers = {"dist-det", "dist-rand",
                                            "gw-moat", "mst-prune"};
  const RequestMatrix matrix = BuildRequests(workload, solvers, {});

  BatchOptions opt;
  opt.threads = threads;
  opt.master_seed = workload.seed;
  BatchEngine engine(opt);
  for (auto _ : state) {
    const auto results = engine.Run(matrix.requests);
    benchmark::DoNotOptimize(results.data());
  }
  const BatchStats& stats = engine.LastStats();
  state.counters["requests"] = stats.requests;
  state.counters["instances_per_sec"] = stats.instances_per_sec;
  state.counters["p50_ms"] = stats.p50_ms;
  state.counters["p95_ms"] = stats.p95_ms;
  state.counters["infeasible"] = stats.infeasible;  // must stay 0
  state.counters["total_weight"] =
      static_cast<double>(stats.total_weight);  // thread-count invariant
}
BENCHMARK(BM_BatchThroughput)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dsf

BENCHMARK_MAIN();
