// Greedy metric spanner.
//
// Substitute for the spanner machinery of [17] (Lenzen & Patt-Shamir,
// STOC'13) that the randomized algorithm's second stage invokes to solve the
// F-reduced instance (Lemma G.15): a greedy (2k-1)-spanner of the
// super-terminal metric has stretch 2k-1 and O(m^{1+1/k}) edges; with
// k = ceil(log2 m) the stretch is O(log m) and the size is O(m), exactly the
// properties the paper's analysis uses. See DESIGN.md "Substitutions".
#pragma once

#include <vector>

#include "common/ids.hpp"

namespace dsf {

struct MetricSpannerEdge {
  int a = 0;
  int b = 0;
  Weight w = 0;
};

// Builds a greedy (2k-1)-spanner of the complete graph on m points whose
// pairwise distances are given by `dist` (an m x m symmetric matrix).
// Pairs at distance >= kInfWeight are treated as absent.
std::vector<MetricSpannerEdge> GreedyMetricSpanner(
    const std::vector<std::vector<Weight>>& dist, int stretch_k);

}  // namespace dsf
