// Minimal-subforest extraction ("return minimal feasible subset of F_i",
// Algorithm 1 line 34; implemented distributively in Appendix F.3).
//
// Given a feasible forest F, the minimal feasible subset is unique: a tree
// edge is kept iff some input component has terminals on both of its sides.
// One DFS numbers F's nodes in preorder, so each subtree is an index
// interval, and edge (v, parent) is kept iff some label below v has its
// first or last preorder index outside v's interval: O(n + |F|) plus
// sorting the terminals by label and the kept edges by id.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "steiner/instance.hpp"

namespace dsf {

// Returns the unique minimal subset of `forest` that still connects every
// input component. `forest` must be a cycle-free, feasible edge set.
std::vector<EdgeId> MinimalFeasibleSubforest(const Graph& g,
                                             const IcInstance& ic,
                                             std::span<const EdgeId> forest);

}  // namespace dsf
