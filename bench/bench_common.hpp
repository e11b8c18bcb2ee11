// Shared helpers for the benchmark binaries: registry parameter lists, a
// seeded terminal spread, and graph-parameter counters. The experiment
// matrix of DESIGN.md §6 is gated by gtests, not by these binaries.
#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "steiner/instance.hpp"

namespace dsf::bench {

// Raw key=value parameters for the workload registries
// (workload/generators.hpp, workload/samplers.hpp).
using ParamList = std::vector<std::pair<std::string, std::string>>;

// Spreads 2 terminals per component across the node range, deterministically
// but "randomly" w.r.t. the seed, avoiding collisions.
inline IcInstance SpreadComponents(int n, int k, SplitMix64& rng,
                                   int terminals_per_component = 2) {
  std::vector<std::pair<NodeId, Label>> assign;
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  for (int c = 0; c < k; ++c) {
    for (int j = 0; j < terminals_per_component; ++j) {
      NodeId v = 0;
      do {
        v = static_cast<NodeId>(rng.NextBelow(static_cast<std::uint64_t>(n)));
      } while (used[static_cast<std::size_t>(v)]);
      used[static_cast<std::size_t>(v)] = 1;
      assign.push_back({v, static_cast<Label>(c + 1)});
    }
  }
  return MakeIcInstance(n, assign);
}

inline void ReportGraphParams(benchmark::State& state, const Graph& g) {
  const auto& p = CachedParameters(g);
  state.counters["n"] = g.NumNodes();
  state.counters["m"] = g.NumEdges();
  state.counters["D"] = p.unweighted_diameter;
  state.counters["s"] = p.shortest_path_diameter;
}

}  // namespace dsf::bench
