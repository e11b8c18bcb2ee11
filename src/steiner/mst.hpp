// Minimum spanning tree (Kruskal) — baseline and special-case oracle.
//
// The paper notes (Section 1, "Main Techniques") that for k = 1 the moat
// algorithm specializes to an MST of the terminal metric, and for the MST
// problem proper (t = n, k = 1) it returns an exact MST.
// MoatGrowingTest.SteinerTreeSpecialCaseIsTerminalMst and
// DetMoatTest.MstSpecialCase verify the t = n case against this
// implementation.
#pragma once

#include <vector>

#include "common/cancel.hpp"
#include "graph/graph.hpp"

namespace dsf {

// Every edge id of g in (w, id) order: a stable LSD radix sort of the ids
// on w, one byte per pass up to the top byte of the largest weight. The
// ids start in id order, so stability breaks weight ties by id.
std::vector<EdgeId> EdgesByWeight(const Graph& g);

// Edge ids of a minimum spanning forest of g (deterministic tie-breaking by
// edge id), in the order Kruskal accepts them. Scans EdgesByWeight with
// early exit: stops after n-1 unions. An expired `cancel` token stops the
// scan within ~4096 edges and returns the partial forest.
std::vector<EdgeId> KruskalMst(const Graph& g,
                               const CancelToken* cancel = nullptr);

// Total weight of the minimum spanning forest.
Weight MstWeight(const Graph& g);

}  // namespace dsf
