// Output validation: feasibility, forest-ness, weights.
//
// The problem definition requires F ⊆ E such that all terminals of each input
// component are connected by F (Definition 2.2) / all connection requests are
// satisfied (Definition 2.1). Every algorithm's output passes through these
// checkers in tests and benchmarks.
#pragma once

#include <span>
#include <string>

#include "graph/graph.hpp"
#include "steiner/instance.hpp"

namespace dsf {

// True iff F connects all terminals of each input component.
bool IsFeasible(const Graph& g, const IcInstance& ic, std::span<const EdgeId> f);

// True iff F satisfies every connection request.
bool IsFeasibleCr(const Graph& g, const CrInstance& cr, std::span<const EdgeId> f);

// Diagnostic: empty string if feasible, otherwise a human-readable reason.
std::string FeasibilityDiagnostic(const Graph& g, const IcInstance& ic,
                                  std::span<const EdgeId> f);

}  // namespace dsf
