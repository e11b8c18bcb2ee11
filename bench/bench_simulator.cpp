// Simulator-throughput benchmark (the tentpole metric of the hot-loop
// rearchitecture): rounds/sec and messages/sec of Network::Step() itself,
// across sparse and dense topologies and all scheduler configurations
// (sequential legacy shape, active-set, thread pool). Two workload classes:
//
//   * Flood — every node sends on every edge every round: zero idle nodes,
//     so this isolates the per-message path (mirror delivery, dirty-list
//     accounting, inline message fields, buffer reuse).
//   * DetMoat / Rand — the paper's protocols on an n = 256 sparse random
//     graph (expected degree 6, k = 4: the n-sweep family of DESIGN.md §6
//     row E4): end-to-end wall clock, where active-set scheduling
//     additionally skips quiescent nodes.
//   * GrantedKnowledge — the two tiers of granted knowledge a cold dist-*
//     run pays for before its first simulated round: connectivity and D
//     (every protocol), and the full n, D, s, WD (dist-rand, dist-khan).
//
// Pre-refactor reference numbers (same machine, RelWithDebInfo — the
// default build type — the seed simulator at commit 89e4cf6) are recorded
// in README.md "Performance".
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "congest/network.hpp"
#include "dist/det_moat.hpp"
#include "dist/randomized.hpp"
#include "workload/generators.hpp"

namespace dsf {
namespace {

// Scheduler configurations, indexed by benchmark argument.
NetworkOptions ConfigAt(int idx) {
  switch (idx) {
    case 0:
      return NetworkOptions{/*active_set=*/false, /*threads=*/1};  // sequential
    case 1:
      return NetworkOptions{/*active_set=*/true, /*threads=*/1};  // active-set
    default:
      return NetworkOptions{/*active_set=*/true, /*threads=*/0};  // + pool
  }
}

const char* ConfigName(int idx) {
  switch (idx) {
    case 0:
      return "seq";
    case 1:
      return "active";
    default:
      return "pool";
  }
}

// Every node sends a 3-field message on every incident edge every round for
// a fixed horizon; no node is ever idle.
class FloodProgram : public NodeProgram {
 public:
  FloodProgram(NodeId id, long horizon) : id_(id), horizon_(horizon) {}

  void OnRound(NodeApi& api) override {
    if (api.Round() >= horizon_) {
      done_ = true;
      return;
    }
    for (int i = 0; i < api.Degree(); ++i) {
      api.Send(i, Message{kChApp, {id_, api.Round(), i}});
    }
  }
  [[nodiscard]] bool Done() const override { return done_; }

 private:
  NodeId id_;
  long horizon_;
  bool done_ = false;
};

// Percentile over a sample of per-round wall-clock times (microseconds).
double RoundPercentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

// Steps the network manually so every round's wall clock is sampled: the
// JSON output carries msgs_per_sec plus p50/p95 round-time percentiles per
// scheduler configuration, making before/after delivery-path claims
// machine-diffable (ISSUE 6 acceptance metric).
void RunFlood(benchmark::State& state, const Graph& g, long horizon) {
  const int config = static_cast<int>(state.range(0));
  long rounds = 0;
  long messages = 0;
  std::vector<double> round_us;
  round_us.reserve(1024);
  for (auto _ : state) {
    StaticKnowledge known;
    known.n = g.NumNodes();
    known.diameter_bound = g.NumNodes();
    Network net(g, known, /*seed=*/1, ConfigAt(config));
    net.Start([&](NodeId v) {
      return std::make_unique<FloodProgram>(v, horizon);
    });
    bool more = true;
    while (more && net.Round() < horizon + 4) {
      const auto t0 = std::chrono::steady_clock::now();
      more = net.Step();
      const auto t1 = std::chrono::steady_clock::now();
      round_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    const auto& stats = net.Stats();
    rounds = stats.rounds;
    messages = stats.messages;
  }
  // Rates are per wall second: every registration reporting one uses
  // UseRealTime(), so pool rows count their workers' time too.
  state.counters["rounds_per_sec"] = benchmark::Counter(
      static_cast<double>(rounds * state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["msgs_per_sec"] = benchmark::Counter(
      static_cast<double>(messages * state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["round_p50_us"] = RoundPercentile(round_us, 0.50);
  state.counters["round_p95_us"] = RoundPercentile(round_us, 0.95);
  state.SetLabel(ConfigName(config));
  state.counters["n"] = g.NumNodes();
  state.counters["m"] = g.NumEdges();
}

void BM_FloodSparse(benchmark::State& state) {
  SplitMix64 rng(41);
  const Graph g = MakeConnectedRandom(512, 6.0 / 512, 1, 32, rng);
  RunFlood(state, g, /*horizon=*/200);
}
BENCHMARK(BM_FloodSparse)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The headline configuration of the arena rearchitecture (ISSUE 6): a
// n = 4096 sparse flood whose per-round traffic (~2 * m messages) is far
// larger than any cache level, so msgs_per_sec here measures the delivery
// path's memory behavior, not compute. The ≥1.5x acceptance criterion is
// stated over this row versus bench/BASELINE_simulator_n4096.json.
void BM_FloodSparse4096(benchmark::State& state) {
  SplitMix64 rng(47);
  const Graph g = MakeConnectedRandom(4096, 6.0 / 4096, 1, 32, rng);
  RunFlood(state, g, /*horizon=*/30);
}
BENCHMARK(BM_FloodSparse4096)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_FloodDense(benchmark::State& state) {
  SplitMix64 rng(43);
  const Graph g = MakeConnectedRandom(192, 0.4, 1, 32, rng);
  RunFlood(state, g, /*horizon=*/200);
}
BENCHMARK(BM_FloodDense)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The n-sweep family of DESIGN.md §6 row E4 at n = 256: end-to-end protocol
// wall clock. Static knowledge is warmed outside the timed region — it is a
// granted input (footnote 2), not simulator work.
void BM_DetMoatLargestN(benchmark::State& state) {
  const int n = 256;
  SplitMix64 rng(static_cast<std::uint64_t>(n) * 31 + 7);
  const Graph g = MakeConnectedRandom(n, 6.0 / n, 1, 32, rng);
  const IcInstance ic = bench::SpreadComponents(n, 4, rng);
  (void)CachedParameters(g);
  DetMoatOptions opts;
  opts.net = ConfigAt(static_cast<int>(state.range(0)));
  long rounds = 0;
  for (auto _ : state) {
    const auto res = RunDistributedMoat(g, ic, opts, 1);
    rounds = res.stats.rounds;
  }
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["rounds_per_sec"] = benchmark::Counter(
      static_cast<double>(rounds * state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetLabel(ConfigName(static_cast<int>(state.range(0))));
  bench::ReportGraphParams(state, g);
}
BENCHMARK(BM_DetMoatLargestN)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_RandLargestN(benchmark::State& state) {
  const int n = 256;
  SplitMix64 rng(static_cast<std::uint64_t>(n) * 31 + 7);
  const Graph g = MakeConnectedRandom(n, 6.0 / n, 1, 32, rng);
  const IcInstance ic = bench::SpreadComponents(n, 4, rng);
  (void)CachedParameters(g);
  RandomizedOptions opts;
  opts.net = ConfigAt(static_cast<int>(state.range(0)));
  long rounds = 0;
  for (auto _ : state) {
    const auto res = RunRandomizedSteinerForest(g, ic, opts, 1);
    rounds = res.stats.rounds;
  }
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["rounds_per_sec"] = benchmark::Counter(
      static_cast<double>(rounds * state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetLabel(ConfigName(static_cast<int>(state.range(0))));
  bench::ReportGraphParams(state, g);
}
BENCHMARK(BM_RandLargestN)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Granted static knowledge (footnote 2) on a fresh graph, one tier per
// second argument: 0 is ComputeHopParameters (connectivity and D, which
// every protocol is granted), 1 is ComputeParameters (adds s and WD, which
// only the randomized wrappers read). CachedHopParameters and
// CachedParameters run them once per graph. First argument 0-3 are the
// perfbench cold-dist families at n = 240, 4 the 64x64 grid of the cold
// dist-det target.
void BM_GrantedKnowledge(benchmark::State& state) {
  struct Family {
    const char* label;
    const char* name;
    bench::ParamList params;
  };
  static const Family kFamilies[] = {
      {"grid 15x16", "grid", {{"rows", "15"}, {"cols", "16"}}},
      {"er n=240", "er", {{"n", "240"}, {"p", "0.02"}}},
      {"power-law n=240", "power-law", {{"n", "240"}, {"m", "2"}}},
      {"expander-far-pairs n=240",
       "expander-far-pairs",
       {{"pairs", "4"}, {"tail", "8"}, {"core", "176"}}},
      {"grid 64x64", "grid", {{"rows", "64"}, {"cols", "64"}}},
  };
  const Family& f = kFamilies[state.range(0)];
  const bool full = state.range(1) == 1;
  const Graph g = BuildGenerator(f.name, f.params, /*seed=*/1);
  if (full) {
    GraphParameters p;
    for (auto _ : state) {
      p = ComputeParameters(g);
      benchmark::DoNotOptimize(p);
    }
    state.counters["D"] = p.unweighted_diameter;
    state.counters["s"] = p.shortest_path_diameter;
  } else {
    HopParameters p;
    for (auto _ : state) {
      p = ComputeHopParameters(g);
      benchmark::DoNotOptimize(p);
    }
    state.counters["D"] = p.unweighted_diameter;
  }
  state.SetLabel(std::string(f.label) + (full ? ", full tier" : ", hop tier"));
  state.counters["n"] = g.NumNodes();
  state.counters["m"] = g.NumEdges();
}
BENCHMARK(BM_GrantedKnowledge)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 4, /*step=*/1), {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dsf

BENCHMARK_MAIN();
