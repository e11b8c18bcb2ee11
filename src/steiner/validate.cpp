#include "steiner/validate.hpp"

#include <map>
#include <sstream>

#include "graph/union_find.hpp"

namespace dsf {

namespace {

UnionFind BuildUf(const Graph& g, std::span<const EdgeId> f) {
  UnionFind uf(g.NumNodes());
  for (const EdgeId id : f) {
    const auto& e = g.GetEdge(id);
    uf.Union(e.u, e.v);
  }
  return uf;
}

}  // namespace

bool IsFeasible(const Graph& g, const IcInstance& ic, std::span<const EdgeId> f) {
  return FeasibilityDiagnostic(g, ic, f).empty();
}

std::string FeasibilityDiagnostic(const Graph& g, const IcInstance& ic,
                                  std::span<const EdgeId> f) {
  DSF_CHECK(ic.NumNodes() == g.NumNodes());
  UnionFind uf = BuildUf(g, f);
  std::map<Label, NodeId> representative;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const Label l = ic.LabelOf(v);
    if (l == kNoLabel) continue;
    auto [it, inserted] = representative.try_emplace(l, v);
    if (!inserted && !uf.Connected(it->second, v)) {
      std::ostringstream os;
      os << "terminals " << it->second << " and " << v << " of component " << l
         << " are not connected by F";
      return os.str();
    }
  }
  return {};
}

bool IsFeasibleCr(const Graph& g, const CrInstance& cr,
                  std::span<const EdgeId> f) {
  DSF_CHECK(cr.NumNodes() == g.NumNodes());
  UnionFind uf = BuildUf(g, f);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (const NodeId w : cr.requests[static_cast<std::size_t>(v)]) {
      if (!uf.Connected(v, w)) return false;
    }
  }
  return true;
}

}  // namespace dsf
