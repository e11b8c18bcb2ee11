#include "steiner/mst.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <utility>

#include "graph/union_find.hpp"

namespace dsf {

std::vector<EdgeId> EdgesByWeight(const Graph& g) {
  const std::vector<Edge>& edges = g.Edges();
  std::vector<EdgeId> order(edges.size());
  std::iota(order.begin(), order.end(), 0);
  std::uint64_t max_w = 0;
  for (const Edge& e : edges) {
    max_w = std::max(max_w, static_cast<std::uint64_t>(e.w));
  }
  std::vector<EdgeId> next(edges.size());
  for (int shift = 0; shift < 64 && (max_w >> shift) != 0; shift += 8) {
    const auto digit = [&](EdgeId id) {
      return static_cast<std::size_t>(
          (static_cast<std::uint64_t>(edges[static_cast<std::size_t>(id)].w) >>
           shift) &
          0xFFu);
    };
    std::array<std::size_t, 256> start{};
    for (const EdgeId id : order) ++start[digit(id)];
    std::size_t sum = 0;
    for (std::size_t& s : start) sum += std::exchange(s, sum);
    for (const EdgeId id : order) next[start[digit(id)]++] = id;
    order.swap(next);
  }
  return order;
}

std::vector<EdgeId> KruskalMst(const Graph& g, const CancelToken* cancel) {
  UnionFind uf(g.NumNodes());
  std::vector<EdgeId> mst;
  const int full = g.NumNodes() - 1;  // forest size when g is connected
  std::size_t scanned = 0;
  for (const EdgeId id : EdgesByWeight(g)) {
    // Cancellation checkpoint every 4096 edges: a portfolio loser stops
    // within a bounded slice of work (the partial forest is returned as-is
    // and reported cancelled by the caller).
    if (cancel != nullptr && (++scanned & 0xFFFu) == 0 && cancel->Expired()) {
      break;
    }
    const auto& e = g.GetEdge(id);
    if (uf.Union(e.u, e.v)) {
      mst.push_back(id);
      if (static_cast<int>(mst.size()) == full) break;
    }
  }
  return mst;
}

Weight MstWeight(const Graph& g) {
  Weight sum = 0;
  for (const EdgeId id : KruskalMst(g)) sum += g.GetEdge(id).w;
  return sum;
}

}  // namespace dsf
