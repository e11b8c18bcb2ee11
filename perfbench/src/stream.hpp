// Seeded request streams of the three benchmark workloads.
//
// Every client connection c owns an infinite, deterministic sequence of
// request lines: `Line(c, k)` is a pure function of (workload, seed, c, k),
// so the closed-loop run, the traced in-process replay and the output check
// all see byte-identical requests. The program under test receives only
// these lines.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "graph/graph.hpp"
#include "serve/cache.hpp"
#include "steiner/instance.hpp"
#include "workload/churn.hpp"

namespace perfbench {

enum class Workload { kColdDist, kHotMix, kChurnRevise };

std::optional<Workload> ParseWorkloadName(std::string_view name);

// The options the serve protocol's request parser sets for a request that
// names none (serve/protocol.cpp, ParseSolve).
dsf::SolveOptions WireOptions();
std::string_view WorkloadName(Workload w);

// Closed-loop connections, one per backend executor. With more, requests
// queue behind other clients' solves for much of their time, which hides
// every layer; and the program's busy threads then exceed the reference
// machine's 4 vCPUs, so host noise moves every figure.
inline constexpr int kClients = 2;

struct Request {
  std::string line;
  bool revise = false;
  // Canonical key (32 hex) the response must carry; churn-revise only.
  std::string expect_key;
};

// One churn chain: a fixed 40x40 grid and its demand trace. Each client
// connection interleaves kChainsPerClient chains of its own.
inline constexpr int kChainsPerClient = 4;
struct ChurnChain {
  std::string graph_line;  // the `generate` directive
  std::uint64_t spec_seed = 1;
  dsf::Graph graph;
  dsf::CacheKey graph_hash;
  dsf::ChurnTrace trace;
};

class RequestStream {
 public:
  RequestStream(Workload workload, std::uint64_t seed);

  [[nodiscard]] std::uint64_t Seed() const noexcept { return seed_; }

  // Request k of client c (0 <= c < kClients). Thread-safe across distinct
  // clients; one client's lines must be requested by one thread.
  [[nodiscard]] Request Line(int client, long k) const;

  // Requests each client sends before measurement starts (cache warm-up).
  [[nodiscard]] long WarmupPerClient() const noexcept;

  // churn-revise: request k of client c is step `step` of chain `chain`;
  // ChurnState is that chain's IC state after `step` steps.
  struct ChurnPosition {
    int chain = 0;
    long step = 0;
  };
  [[nodiscard]] ChurnPosition ChurnAt(int client, long k) const;
  [[nodiscard]] const ChurnChain& Chain(int chain) const;
  [[nodiscard]] dsf::IcInstance ChurnState(int chain, long step) const;

 private:
  std::string ColdDistLine(int client, long k) const;
  std::string HotMixLine(int client, long k) const;
  Request ChurnLine(int client, long k) const;
  std::string ChurnKey(const ChurnChain& chain, const dsf::IcInstance& state) const;

  Workload workload_;
  std::uint64_t seed_;
  // hot-mix: the hot set, one spec text per instance.
  std::vector<std::string> hot_specs_;
  // churn-revise: the chains plus a state cursor per chain.
  std::vector<std::unique_ptr<ChurnChain>> chains_;
  struct Cursor {
    long k = 0;
    dsf::IcInstance state;
  };
  mutable std::vector<Cursor> cursors_;
};

// Runs fn(client) on one thread per client connection and joins them.
template <class F>
void ForEachClient(F&& fn) {
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back([&fn, c] { fn(c); });
  for (std::thread& t : threads) t.join();
}

}  // namespace perfbench
