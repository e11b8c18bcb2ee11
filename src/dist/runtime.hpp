// Shared plumbing for the dist/ protocol wrappers: every Run* entry point
// grants its nodes n and D (footnote 2 of the paper; the memoized hop tier
// of graph/properties.hpp, no shortest paths), and rejects disconnected
// topologies, on which the BFS coordination tree (and hence every protocol)
// cannot be built. Only the randomized wrappers (dist-rand, dist-khan) also
// read s and WD, from CachedParameters: s decides √n truncation and the
// charged rounds m·(s + D + 2), WD the embedding's level count. dist-det
// sizes its round watchdog with s ≤ n − 1, and the CR→IC transform and
// instance minimization read only n and D.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "congest/network.hpp"
#include "graph/graph.hpp"

namespace dsf::detail {

// Grants {n, D} for `g` and throws std::logic_error (via DSF_CHECK) when g
// is disconnected.
StaticKnowledge KnownOrThrow(const Graph& g);

// The labels held by fewer than two terminals among convergecast
// (node, label) items — the components Lemma 2.4 drops. Shared by the
// standalone minimization protocol and the moat protocol's inline
// minimization so the two cannot diverge.
std::set<Label> SingletonLabels(
    const std::vector<std::vector<std::int64_t>>& terminal_items);

}  // namespace dsf::detail
