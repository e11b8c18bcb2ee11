// Standard-benchmark importers: SteinLib `.stp` and DIMACS graph files
// mapped onto the repo's Graph / IcInstance types, so the solver matrix can
// be exercised on the instances the Steiner literature evaluates against
// (e.g. the local-search study of Gross et al. 2017) instead of toy graphs.
//
// SteinLib (STP Format 1.0): SECTION Graph (Nodes/Edges/E lines) plus an
// optional SECTION Terminals; nodes are 1-based. The terminal set becomes a
// single-label IcInstance — a Steiner *tree* instance is exactly a Steiner
// forest instance with one input component (Definition 2.2 with |Λ| = 1).
//
// DIMACS: `c` comments, a `p <kind> <n> <m>` header, and `e`/`a` lines with
// 1-based endpoints and an optional weight (default 1). Arcs are treated as
// undirected. In both formats a repeated {u, v} keeps the minimum weight
// (the only weight a solver could use) and self-loops are dropped. DIMACS
// carries no terminals — instances come from samplers or explicit
// directives in the enclosing scenario.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"
#include "steiner/instance.hpp"

namespace dsf {

struct ImportedWorkload {
  Graph graph;  // finalized
  bool has_terminals = false;
  IcInstance terminals;  // all terminals share label 1; set iff has_terminals
};

// Parse errors throw std::runtime_error naming `origin` and the line. Edge
// weights must lie in [1, kMaxEdgeWeight], as in a spec's `edge` lines.
ImportedWorkload ParseSteinLib(std::istream& in, const std::string& origin);
ImportedWorkload LoadSteinLib(const std::string& path);

ImportedWorkload ParseDimacs(std::istream& in, const std::string& origin);
ImportedWorkload LoadDimacs(const std::string& path);

}  // namespace dsf
