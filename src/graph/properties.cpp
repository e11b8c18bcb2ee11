#include "graph/properties.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/shortest_paths.hpp"

namespace dsf {

namespace {

// D by bit-parallel BFS over batches of 64 sources, source base + i owning
// bit i: seen[v] holds the batch sources that have reached v, frontier[v]
// those that reached it exactly at the current level. A level pushes only
// from nodes with a non-zero frontier word, and a node is in the frontier
// once per distinct distance it has to the batch, so a batch costs at most
// 64 BFS traversals and usually far fewer.
int HopDiameter(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.NumNodes());
  std::vector<std::uint64_t> seen(n);
  std::vector<std::uint64_t> frontier(n);
  std::vector<std::uint64_t> next(n);
  std::vector<NodeId> active;
  std::vector<NodeId> touched;
  int diameter = 0;
  for (NodeId base = 0; base < g.NumNodes(); base += 64) {
    std::fill(seen.begin(), seen.end(), 0);
    active.clear();
    for (NodeId s = base; s < std::min(g.NumNodes(), base + 64); ++s) {
      const auto si = static_cast<std::size_t>(s);
      seen[si] = frontier[si] = std::uint64_t{1} << (s - base);
      active.push_back(s);
    }
    for (int level = 1;; ++level) {
      touched.clear();
      for (const NodeId u : active) {
        const std::uint64_t f = frontier[static_cast<std::size_t>(u)];
        frontier[static_cast<std::size_t>(u)] = 0;
        for (const auto& inc : g.Neighbors(u)) {
          auto& word = next[static_cast<std::size_t>(inc.neighbor)];
          if (word == 0) touched.push_back(inc.neighbor);
          word |= f;
        }
      }
      active.clear();
      for (const NodeId v : touched) {
        const auto vi = static_cast<std::size_t>(v);
        const std::uint64_t fresh = next[vi] & ~seen[vi];
        next[vi] = 0;
        if (fresh == 0) continue;
        seen[vi] |= fresh;
        frontier[vi] = fresh;
        active.push_back(v);
      }
      if (active.empty()) break;
      diameter = std::max(diameter, level);
    }
  }
  return diameter;
}

// Guards the install of every graph's memo slots (both tiers).
std::mutex memo_mu;

// Installs compute()'s result in a graph's memo slot once. Concurrent batch
// solves share one Graph and may race to fill a cold slot (BatchEngine fans
// requests across the round pool), so the install is serialized. The
// computation runs outside the lock: a cold same-graph race wastes one
// duplicate computation, but callers needing an unrelated (or warm) graph
// never block behind it. Once installed the object is never replaced, so
// the returned reference stays valid for the graph's lifetime.
template <typename T, typename Compute>
const T& InstallOnce(std::shared_ptr<const T>& slot, const Compute& compute) {
  {
    const std::lock_guard<std::mutex> lock(memo_mu);
    if (slot != nullptr) return *slot;
  }
  auto computed = std::make_shared<const T>(compute());
  const std::lock_guard<std::mutex> lock(memo_mu);
  if (slot == nullptr) slot = std::move(computed);
  return *slot;
}

GraphParameters WithPathDiameters(const Graph& g, const HopParameters& hop) {
  const PathDiameters path = AllPairsPathDiameters(g);
  GraphParameters p;
  p.unweighted_diameter = hop.unweighted_diameter;
  p.weighted_diameter = path.weighted;
  p.shortest_path_diameter = path.hops;
  p.connected = hop.connected;
  return p;
}

}  // namespace

HopParameters ComputeHopParameters(const Graph& g) {
  HopParameters p;
  p.connected = IsConnected(g);
  p.unweighted_diameter = HopDiameter(g);
  return p;
}

GraphParameters ComputeParameters(const Graph& g) {
  return WithPathDiameters(g, ComputeHopParameters(g));
}

const HopParameters& CachedHopParameters(const Graph& g) {
  DSF_CHECK(g.Finalized());
  return InstallOnce(g.hop_cache_, [&g] { return ComputeHopParameters(g); });
}

const GraphParameters& CachedParameters(const Graph& g) {
  DSF_CHECK(g.Finalized());
  return InstallOnce(g.params_cache_, [&g] {
    return WithPathDiameters(g, CachedHopParameters(g));
  });
}

bool IsConnected(const Graph& g) {
  if (g.NumNodes() == 0) return true;
  return ConnectedComponents(g).count == 1;
}

}  // namespace dsf
