// Weighted undirected graph with stable edge identifiers.
//
// This is the network topology of the CONGEST model (Section 2 of the paper):
// G = (V, E, W), W : E -> N. Nodes are 0..n-1; edges carry an EdgeId equal to
// their insertion index, which doubles as the index into per-edge state kept
// by algorithms (selected-forest bitmaps, coverage fractions, ...).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"

namespace dsf {

struct HopParameters;    // graph/properties.hpp
struct GraphParameters;  // graph/properties.hpp

struct Edge {
  NodeId u = kNoNode;
  NodeId v = kNoNode;
  Weight w = 0;

  [[nodiscard]] NodeId Other(NodeId x) const noexcept { return x == u ? v : u; }
  friend bool operator==(const Edge&, const Edge&) = default;
};

// Incidence record stored in adjacency lists: the neighbor and the edge id.
struct Incidence {
  NodeId neighbor = kNoNode;
  EdgeId edge = kNoEdge;
};

class Graph {
 public:
  Graph() = default;
  explicit Graph(int n) : n_(n), adj_index_(static_cast<std::size_t>(n) + 1, 0) {
    DSF_CHECK(n >= 0);
  }

  // Adds an undirected edge {u, v} with weight w >= 1 and returns its id.
  // Self-loops are rejected; parallel edges are allowed by the structure but
  // generators never produce them.
  EdgeId AddEdge(NodeId u, NodeId v, Weight w);

  // Must be called once after all AddEdge calls; builds the CSR adjacency.
  void Finalize();

  [[nodiscard]] int NumNodes() const noexcept { return n_; }
  [[nodiscard]] int NumEdges() const noexcept {
    return static_cast<int>(edges_.size());
  }
  [[nodiscard]] bool Finalized() const noexcept { return finalized_; }

  [[nodiscard]] const Edge& GetEdge(EdgeId e) const {
    DSF_CHECK(e >= 0 && e < NumEdges());
    return edges_[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] const std::vector<Edge>& Edges() const noexcept { return edges_; }

  // Neighbors of u with their edge ids; valid only after Finalize().
  [[nodiscard]] std::span<const Incidence> Neighbors(NodeId u) const {
    DSF_CHECK(finalized_);
    DSF_CHECK(u >= 0 && u < n_);
    const auto lo = adj_index_[static_cast<std::size_t>(u)];
    const auto hi = adj_index_[static_cast<std::size_t>(u) + 1];
    return {adj_.data() + lo, adj_.data() + hi};
  }

  // Mirror indices of u's incidence slots: entry i is the local index, in
  // the adjacency list of Neighbors(u)[i].neighbor, of the same edge. Lets a
  // simulator resolve the receiver-side local index of a delivery in O(1)
  // instead of scanning the receiver's adjacency. Valid only after
  // Finalize(); parallel to Neighbors(u).
  [[nodiscard]] std::span<const std::int32_t> MirrorLocals(NodeId u) const {
    DSF_CHECK(finalized_);
    DSF_CHECK(u >= 0 && u < n_);
    const auto lo = adj_index_[static_cast<std::size_t>(u)];
    const auto hi = adj_index_[static_cast<std::size_t>(u) + 1];
    return {mirror_.data() + lo, mirror_.data() + hi};
  }

  // Global incidence ("slot") addressing: u's local edge `i` lives at CSR
  // slot IncidenceBase(u) + i. The per-round message arena keys all of its
  // per-message state off this single u32, so the simulator's delivery path
  // never touches the Edge array.
  [[nodiscard]] std::size_t IncidenceBase(NodeId u) const {
    DSF_CHECK(finalized_);
    DSF_CHECK(u >= 0 && u < n_);
    return adj_index_[static_cast<std::size_t>(u)];
  }

  // Directed-edge index of each slot, parallel to the CSR adjacency:
  // 2 * edge + 0 when the slot's owner is GetEdge(edge).u, else 2 * edge + 1.
  // Gives the sender-side bandwidth-accounting index (and, via >> 1, the
  // EdgeId) as one array read per message.
  [[nodiscard]] std::span<const std::uint32_t> SlotDirs() const {
    DSF_CHECK(finalized_);
    return slot_dir_;
  }

  // Mirror of each slot as a flat array (same values MirrorLocals exposes
  // per node): the receiver-side local index of the slot's edge.
  [[nodiscard]] std::span<const std::int32_t> SlotMirrors() const {
    DSF_CHECK(finalized_);
    return mirror_;
  }

  [[nodiscard]] int Degree(NodeId u) const {
    return static_cast<int>(Neighbors(u).size());
  }

  [[nodiscard]] Weight TotalWeight() const noexcept {
    Weight sum = 0;
    for (const auto& e : edges_) sum += e.w;
    return sum;
  }

  // Sum of weights of the given edge subset.
  [[nodiscard]] Weight WeightOf(std::span<const EdgeId> subset) const;

  // True if `subset` (as an edge set) contains no cycle.
  [[nodiscard]] bool IsForest(std::span<const EdgeId> subset) const;

  // Human-readable one-line summary, e.g. "Graph(n=10, m=14)".
  [[nodiscard]] std::string Summary() const;

 private:
  // Memoization hooks for the two tiers of CachedHopParameters and
  // CachedParameters (graph/properties.cpp): a finalized graph is
  // immutable, so its derived parameters (connectivity and D; then s and
  // WD) are computed once and shared by every run on the same topology.
  // Copies of the graph share the caches.
  friend const HopParameters& CachedHopParameters(const Graph& g);
  friend const GraphParameters& CachedParameters(const Graph& g);

  int n_ = 0;
  std::vector<Edge> edges_;
  std::vector<std::size_t> adj_index_;
  std::vector<Incidence> adj_;
  std::vector<std::int32_t> mirror_;  // parallel to adj_: reverse local index
  std::vector<std::uint32_t> slot_dir_;  // parallel to adj_: 2*edge + side
  bool finalized_ = false;
  mutable std::shared_ptr<const HopParameters> hop_cache_;
  mutable std::shared_ptr<const GraphParameters> params_cache_;
};

// Convenience: builds a finalized graph from an edge list.
Graph MakeGraph(int n, const std::vector<Edge>& edges);

}  // namespace dsf
