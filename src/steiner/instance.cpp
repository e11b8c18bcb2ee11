#include "steiner/instance.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "graph/union_find.hpp"

namespace dsf {

std::vector<NodeId> IcInstance::Terminals() const {
  std::vector<NodeId> t;
  for (NodeId v = 0; v < NumNodes(); ++v) {
    if (IsTerminal(v)) t.push_back(v);
  }
  return t;
}

std::vector<Label> IcInstance::DistinctLabels() const {
  std::set<Label> s;
  for (const Label l : labels) {
    if (l != kNoLabel) s.insert(l);
  }
  return {s.begin(), s.end()};
}

int IcInstance::NumTerminals() const { return static_cast<int>(Terminals().size()); }

int IcInstance::NumComponents() const {
  return static_cast<int>(DistinctLabels().size());
}

int IcInstance::NumNontrivialComponents() const {
  std::map<Label, int> count;
  for (const Label l : labels) {
    if (l != kNoLabel) ++count[l];
  }
  int k0 = 0;
  for (const auto& [l, c] : count) {
    if (c >= 2) ++k0;
  }
  return k0;
}

bool IcInstance::IsMinimal() const {
  std::map<Label, int> count;
  for (const Label l : labels) {
    if (l != kNoLabel) ++count[l];
  }
  return std::all_of(count.begin(), count.end(),
                     [](const auto& kv) { return kv.second >= 2; });
}

std::vector<NodeId> CrInstance::Terminals() const {
  std::set<NodeId> t;
  for (NodeId v = 0; v < NumNodes(); ++v) {
    const auto& rv = requests[static_cast<std::size_t>(v)];
    if (!rv.empty()) t.insert(v);
    for (const NodeId w : rv) t.insert(w);
  }
  return {t.begin(), t.end()};
}

int CrInstance::NumTerminals() const { return static_cast<int>(Terminals().size()); }

int CrInstance::NumRequests() const {
  int total = 0;
  for (const auto& rv : requests) total += static_cast<int>(rv.size());
  return total;
}

IcInstance MakeIcInstance(int n,
                          const std::vector<std::pair<NodeId, Label>>& assignment) {
  IcInstance ic;
  ic.labels.assign(static_cast<std::size_t>(n), kNoLabel);
  for (const auto& [v, l] : assignment) {
    DSF_CHECK(v >= 0 && v < n);
    DSF_CHECK(l != kNoLabel);
    ic.labels[static_cast<std::size_t>(v)] = l;
  }
  return ic;
}

CrInstance MakeCrInstance(int n,
                          const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  CrInstance cr;
  cr.requests.assign(static_cast<std::size_t>(n), {});
  for (const auto& [v, w] : pairs) {
    DSF_CHECK(v >= 0 && v < n && w >= 0 && w < n && v != w);
    cr.requests[static_cast<std::size_t>(v)].push_back(w);
    cr.requests[static_cast<std::size_t>(w)].push_back(v);
  }
  return cr;
}

IcInstance CrToIc(const CrInstance& cr) {
  const int n = cr.NumNodes();
  UnionFind uf(n);
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId w : cr.requests[static_cast<std::size_t>(v)]) {
      uf.Union(v, w);
    }
  }
  IcInstance ic;
  ic.labels.assign(static_cast<std::size_t>(n), kNoLabel);
  for (const NodeId v : cr.Terminals()) {
    // Component label := smallest terminal id in the request component
    // (matches Lemma 2.3's "smallest ID in the component").
    ic.labels[static_cast<std::size_t>(v)] = static_cast<Label>(uf.Find(v));
  }
  // Normalize representative to the smallest terminal id per class.
  std::map<Label, Label> smallest;
  for (NodeId v = 0; v < n; ++v) {
    const Label l = ic.labels[static_cast<std::size_t>(v)];
    if (l == kNoLabel) continue;
    auto it = smallest.find(l);
    if (it == smallest.end()) {
      smallest[l] = static_cast<Label>(v);
    } else {
      it->second = std::min(it->second, static_cast<Label>(v));
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    Label& l = ic.labels[static_cast<std::size_t>(v)];
    if (l != kNoLabel) l = smallest[l];
  }
  return ic;
}

IcInstance MakeMinimal(const IcInstance& ic) {
  std::map<Label, int> count;
  for (const Label l : ic.labels) {
    if (l != kNoLabel) ++count[l];
  }
  IcInstance out = ic;
  for (Label& l : out.labels) {
    if (l != kNoLabel && count[l] < 2) l = kNoLabel;
  }
  return out;
}

}  // namespace dsf
