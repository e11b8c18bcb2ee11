// Service-layer load generator (DESIGN.md §5): closed-loop clients against
// an in-process `Server` over real sockets, with a configurable duplicate
// ratio.
//
// Each client thread runs its own connection and sends solve requests
// back-to-back (closed loop: the next request leaves when the previous
// response arrived). A duplicate ratio of D% draws D% of requests from a
// small hot set shared by every client — the traffic shape the canonical-
// hash cache exists for — and the rest from client-unique cold specs.
// Per-request latency is measured client-side and split by the response's
// cached flag, giving the hit/miss latency separation directly
// (acceptance: at 8 clients and 50% duplicates, cache-hit requests
// complete >= 10x faster than misses).
//
// `bench/run_benchmarks.sh` records this series as BENCH_serve.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/json.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "solve/batch.hpp"
#include "workload/churn.hpp"

namespace dsf {
namespace {

constexpr int kRequestsPerClient = 40;
constexpr int kHotSpecs = 4;

// One unit of solver work per request: a generated 12x12 grid carrying one
// sampled two-component instance, solved by the paper's deterministic
// protocol (heavy enough that a recompute dwarfs the lookup path).
std::string SpecText(int variant) {
  std::ostringstream os;
  os << "seed " << (variant + 1) << "\n"
     << "generate grid rows=12 cols=12 min_w=1 max_w=9 salt=" << variant
     << "\n"
     << "sample random-ic load k=2 tpc=2\n";
  return os.str();
}

std::string RequestLine(int variant) {
  std::ostringstream os;
  JsonWriter json(os);
  json.BeginObject();
  json.Key("op");
  json.String("solve");
  json.Key("spec");
  json.String(SpecText(variant));
  json.Key("solvers");
  json.BeginArray();
  json.String("dist-det");
  json.EndArray();
  json.EndObject();
  return os.str();
}

struct ClientTally {
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  int errors = 0;
};

ClientTally RunClientLoop(int port, int client, int dup_percent) {
  ClientTally tally;
  try {
    ClientConnection conn("127.0.0.1", port);
    for (int i = 0; i < kRequestsPerClient; ++i) {
      // Deterministic Bresenham interleave: dup_percent% of the stream
      // goes to the shared hot set, spread evenly; the rest to cold specs
      // unique to (client, i).
      const bool hot = (i + 1) * dup_percent / 100 > i * dup_percent / 100;
      const int variant =
          hot ? i % kHotSpecs : 1000 + client * kRequestsPerClient + i;
      const std::string request = RequestLine(variant);
      const auto start = std::chrono::steady_clock::now();
      const JsonValue response = conn.RoundTrip(request);
      const auto stop = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(stop - start).count();
      if (!response.GetBool("ok", false) ||
          response.GetNumber("requests", 0) != 1.0) {
        ++tally.errors;
        continue;
      }
      if (response.GetNumber("misses", -1) == 0.0) {
        tally.hit_ms.push_back(ms);
      } else {
        tally.miss_ms.push_back(ms);
      }
    }
  } catch (const std::exception&) {
    ++tally.errors;
  }
  return tally;
}

void BM_ServeLoad(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const int dup_percent = static_cast<int>(state.range(1));

  for (auto _ : state) {
    // A fresh server per iteration: hit/miss separation depends on a cold
    // cache, and the drain is part of what this bench exercises.
    ServeOptions options;
    options.threads = 4;
    Server server(options);
    server.Start();

    std::vector<ClientTally> tallies(static_cast<std::size_t>(clients));
    {
      std::vector<std::thread> threads;
      threads.reserve(static_cast<std::size_t>(clients));
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          tallies[static_cast<std::size_t>(c)] =
              RunClientLoop(server.Port(), c, dup_percent);
        });
      }
      for (std::thread& t : threads) t.join();
    }

    std::vector<double> hit_ms;
    std::vector<double> miss_ms;
    int errors = 0;
    for (const ClientTally& t : tallies) {
      hit_ms.insert(hit_ms.end(), t.hit_ms.begin(), t.hit_ms.end());
      miss_ms.insert(miss_ms.end(), t.miss_ms.begin(), t.miss_ms.end());
      errors += t.errors;
    }
    std::sort(hit_ms.begin(), hit_ms.end());
    std::sort(miss_ms.begin(), miss_ms.end());
    const CacheCounters cache = server.Cache().Counters();
    const QueueCounters queue = server.Queue().Counters();
    server.RequestShutdown();
    const int drain_rc = server.Wait();

    const double total = static_cast<double>(hit_ms.size() + miss_ms.size());
    state.counters["clients"] = clients;
    state.counters["dup_percent"] = dup_percent;
    state.counters["requests"] = total;
    state.counters["errors"] = errors + drain_rc;  // must stay 0
    state.counters["hit_requests"] = static_cast<double>(hit_ms.size());
    state.counters["miss_requests"] = static_cast<double>(miss_ms.size());
    state.counters["hit_p50_ms"] = PercentileOfSorted(hit_ms, 0.50);
    state.counters["miss_p50_ms"] = PercentileOfSorted(miss_ms, 0.50);
    state.counters["hit_p95_ms"] = PercentileOfSorted(hit_ms, 0.95);
    state.counters["miss_p95_ms"] = PercentileOfSorted(miss_ms, 0.95);
    // The acceptance ratio: how much faster a cached request completes.
    state.counters["hit_speedup"] =
        hit_ms.empty() ? 0.0
                       : PercentileOfSorted(miss_ms, 0.50) /
                             PercentileOfSorted(hit_ms, 0.50);
    state.counters["cache_hits"] = static_cast<double>(cache.hits);
    state.counters["cache_misses"] = static_cast<double>(cache.misses);
    state.counters["coalesced"] = static_cast<double>(queue.coalesced);
  }
}
BENCHMARK(BM_ServeLoad)
    ->Args({1, 0})    // single client, all-cold baseline
    ->Args({8, 50})   // the acceptance configuration
    ->Args({8, 90})   // cache-dominated traffic
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// --- churn revise: warm vs cold ----------------------------------------------
//
// The incremental re-solve acceptance series: a stable grid topology under a
// churn trace (each step retires one demand pair and admits one). The warm
// chain sends `revise` requests — base = the previous response's key, delta
// = the churn step — against one server; the cold series solves every state
// from scratch against a *separate* server, so revise-inserted cache entries
// cannot turn the cold measurements into hits. It records both latencies
// and the warm/cold cost ratio (acceptance: <= 1.05). A cold local-search
// run on this grid searches no reconnection (its Kruskal seed admits no
// improving swap), so it is the faster of the two; the warm chain buys the
// lower cost.

constexpr int kChurnRows = 40;
constexpr int kChurnCols = 40;
constexpr int kChurnPairs = 24;  // churn=1 -> 1/24 of pairs per delta (<10%)
constexpr int kChurnSteps = 120;
constexpr std::uint64_t kChurnSeed = 17;

// Spec text framing one churn state: the stable generated grid plus the
// state's explicit terminal lines (a generated graph keeps the request
// small, so spec parsing does not dilute the warm/cold solver-time
// separation). Cold solves of state k and revises of (state k-1 + step
// k-1) meet at the same canonical key through this framing.
std::string ChurnStateSpec(const IcInstance& state) {
  std::ostringstream os;
  os << "seed 11\n"
     << "generate grid rows=" << kChurnRows << " cols=" << kChurnCols
     << " min_w=1 max_w=9 salt=3\n"
     << "ic churned\n";
  for (NodeId v = 0; v < state.NumNodes(); ++v) {
    if (state.IsTerminal(v)) {
      os << "terminal " << v << " " << state.LabelOf(v) << "\n";
    }
  }
  return os.str();
}

std::string ChurnSolveLine(const std::string& spec) {
  std::ostringstream os;
  JsonWriter json(os);
  json.BeginObject();
  json.Key("op");
  json.String("solve");
  json.Key("spec");
  json.String(spec);
  json.Key("solvers");
  json.BeginArray();
  json.String("local-search");
  json.EndArray();
  json.EndObject();
  return os.str();
}

std::string ChurnReviseLine(const std::string& base_spec,
                            const std::string& base_key,
                            const ChurnStep& step) {
  std::ostringstream os;
  JsonWriter json(os);
  json.BeginObject();
  json.Key("op");
  json.String("revise");
  json.Key("spec");
  json.String(base_spec);
  json.Key("solvers");
  json.BeginArray();
  json.String("local-search");
  json.EndArray();
  json.Key("base");
  json.String(base_key);
  json.Key("delta");
  json.BeginObject();
  json.Key("remove_terminals");
  json.BeginArray();
  for (const NodeId v : step.remove_terminals) json.Int(v);
  json.EndArray();
  json.Key("add_terminals");
  json.BeginArray();
  for (const auto& [node, label] : step.add_terminals) {
    json.BeginArray();
    json.Int(node);
    json.Int(label);
    json.EndArray();
  }
  json.EndArray();
  json.EndObject();
  json.EndObject();
  return os.str();
}

void BM_ChurnRevise(benchmark::State& state) {
  const ChurnTrace trace =
      SampleChurnTrace(kChurnRows * kChurnCols, 0, kChurnPairs, kChurnSteps,
                       1, kChurnSeed);

  for (auto _ : state) {
    std::vector<double> warm_ms, cold_ms;
    std::vector<Weight> warm_weight(kChurnSteps, 0), cold_weight(kChurnSteps, 0);
    int errors = 0;
    int warm_taken = 0;

    // Warm chain: seed solve of state 0, then one revise per churn step,
    // each basing on the key the previous response returned.
    {
      ServeOptions options;
      options.threads = 2;
      Server server(options);
      server.Start();
      ClientConnection conn("127.0.0.1", server.Port());
      const JsonValue seed_solve =
          conn.RoundTrip(ChurnSolveLine(ChurnStateSpec(trace.base)));
      std::string key = seed_solve.GetBool("ok", false)
                            ? seed_solve.Find("results")->array[0].GetString(
                                  "key", "")
                            : "";
      if (key.size() != 32) ++errors;
      for (int k = 0; k < kChurnSteps && !key.empty(); ++k) {
        const std::string line =
            ChurnReviseLine(ChurnStateSpec(trace.StateAt(k)), key,
                            trace.steps[static_cast<std::size_t>(k)]);
        const auto start = std::chrono::steady_clock::now();
        const JsonValue v = conn.RoundTrip(line);
        const auto stop = std::chrono::steady_clock::now();
        if (!v.GetBool("ok", false)) {
          ++errors;
          break;
        }
        warm_ms.push_back(
            std::chrono::duration<double, std::milli>(stop - start).count());
        if (v.GetBool("warm", false)) ++warm_taken;
        warm_weight[static_cast<std::size_t>(k)] = static_cast<Weight>(
            v.Find("results")->array[0].GetNumber("weight", -1));
        key = v.GetString("key", "");
      }
      server.RequestShutdown();
      errors += server.Wait();
    }

    // Cold series: every revised state solved from scratch on a separate
    // server (the warm chain's cache inserts must not leak in).
    {
      ServeOptions options;
      options.threads = 2;
      Server server(options);
      server.Start();
      ClientConnection conn("127.0.0.1", server.Port());
      for (int k = 0; k < kChurnSteps; ++k) {
        const std::string line =
            ChurnSolveLine(ChurnStateSpec(trace.StateAt(k + 1)));
        const auto start = std::chrono::steady_clock::now();
        const JsonValue v = conn.RoundTrip(line);
        const auto stop = std::chrono::steady_clock::now();
        if (!v.GetBool("ok", false)) {
          ++errors;
          break;
        }
        cold_ms.push_back(
            std::chrono::duration<double, std::milli>(stop - start).count());
        cold_weight[static_cast<std::size_t>(k)] = static_cast<Weight>(
            v.Find("results")->array[0].GetNumber("weight", -1));
      }
      server.RequestShutdown();
      errors += server.Wait();
    }

    double ratio_sum = 0.0, ratio_worst = 0.0;
    int ratio_count = 0;
    for (int k = 0; k < kChurnSteps; ++k) {
      if (warm_weight[static_cast<std::size_t>(k)] <= 0 ||
          cold_weight[static_cast<std::size_t>(k)] <= 0) {
        continue;
      }
      const double ratio =
          static_cast<double>(warm_weight[static_cast<std::size_t>(k)]) /
          static_cast<double>(cold_weight[static_cast<std::size_t>(k)]);
      ratio_sum += ratio;
      ratio_worst = std::max(ratio_worst, ratio);
      ++ratio_count;
    }
    std::sort(warm_ms.begin(), warm_ms.end());
    std::sort(cold_ms.begin(), cold_ms.end());

    state.counters["steps"] = static_cast<double>(kChurnSteps);
    state.counters["pairs"] = static_cast<double>(kChurnPairs);
    state.counters["errors"] = errors;  // must stay 0
    state.counters["warm_taken"] = warm_taken;
    state.counters["warm_p50_ms"] = PercentileOfSorted(warm_ms, 0.50);
    state.counters["warm_p95_ms"] = PercentileOfSorted(warm_ms, 0.95);
    state.counters["cold_p50_ms"] = PercentileOfSorted(cold_ms, 0.50);
    state.counters["cold_p95_ms"] = PercentileOfSorted(cold_ms, 0.95);
    // Warm revise latency vs a from-scratch solve of the same state, and
    // the solution cost ratio (acceptance: <= 1.05).
    state.counters["p95_speedup"] =
        warm_ms.empty() ? 0.0
                        : PercentileOfSorted(cold_ms, 0.95) /
                              PercentileOfSorted(warm_ms, 0.95);
    state.counters["cost_ratio_mean"] =
        ratio_count == 0 ? 0.0 : ratio_sum / ratio_count;
    state.counters["cost_ratio_worst"] = ratio_worst;
  }
}
BENCHMARK(BM_ChurnRevise)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dsf

BENCHMARK_MAIN();
