#include "dist/runtime.hpp"

#include <map>

#include "graph/properties.hpp"

namespace dsf::detail {

StaticKnowledge KnownOrThrow(const Graph& g) {
  DSF_CHECK(g.Finalized());
  DSF_CHECK(g.NumNodes() >= 1);
  // Memoized: repeated runs on the same topology (benchmark sweeps, the
  // randomized algorithm's repetitions) pay the diameter sweep once.
  const HopParameters& hop = CachedHopParameters(g);
  DSF_CHECK_MSG(hop.connected,
                "distributed protocols require a connected topology");
  StaticKnowledge known;
  known.n = g.NumNodes();
  known.diameter_bound = hop.unweighted_diameter;
  return known;
}

std::set<Label> SingletonLabels(
    const std::vector<std::vector<std::int64_t>>& terminal_items) {
  std::map<Label, int> count;
  for (const auto& item : terminal_items) ++count[static_cast<Label>(item[1])];
  std::set<Label> singletons;
  for (const auto& [label, c] : count) {
    if (c < 2) singletons.insert(label);
  }
  return singletons;
}

}  // namespace dsf::detail
