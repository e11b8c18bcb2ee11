// Fundamental scalar types shared by every module.
//
// The paper works with a weighted graph G = (V, E, W), W : E -> N with weights
// polynomially bounded in n; we use 64-bit integers for weights and derived
// sums, and `Real` (x86-64 extended precision) for moat radii / event times,
// which are dyadic rationals and hence exactly representable at the instance
// sizes this library targets (see DESIGN.md §8).
#pragma once

#include <cstdint>
#include <limits>

namespace dsf {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;
using Weight = std::int64_t;
using Label = std::int32_t;  // input-component identifier; kNoLabel == "⊥"
using Real = long double;

inline constexpr NodeId kNoNode = -1;
inline constexpr EdgeId kNoEdge = -1;
inline constexpr Label kNoLabel = -1;
inline constexpr Weight kInfWeight = std::numeric_limits<Weight>::max() / 4;
// Largest edge weight the text formats accept (spec `edge`, STP `E`,
// DIMACS `e`/`a` lines). On the at most 10^7 nodes of a spec graph, a simple
// path weighs at most 10^15, so distance sums stay below kInfWeight and
// still fit the moat engine's fixed point (workload/spec.cpp asserts both).
inline constexpr Weight kMaxEdgeWeight = 100'000'000;
inline constexpr Real kInfReal = std::numeric_limits<Real>::max() / 4;

}  // namespace dsf
