// Problem definitions (Section 2 of the paper).
//
// DSF-IC (Definition 2.2): every node holds a component label λ(v) ∈ Λ ∪ {⊥};
// the output forest must connect all terminals sharing a label.
// DSF-CR (Definition 2.1): every node holds a set of connection requests
// R_v ⊆ V; the output must connect v to every w ∈ R_v.
//
// Centralized reference transformations mirror Lemmas 2.3 and 2.4; the
// distributed protocols implementing them (RunDistributedCrToIc and
// RunDistributedMakeMinimal) live in src/dist/transform.{hpp,cpp}.
#pragma once

#include <vector>

#include "common/ids.hpp"
#include "graph/graph.hpp"

namespace dsf {

// DSF with Input Components. labels[v] == kNoLabel means v is not a terminal.
struct IcInstance {
  std::vector<Label> labels;

  [[nodiscard]] int NumNodes() const noexcept {
    return static_cast<int>(labels.size());
  }
  [[nodiscard]] bool IsTerminal(NodeId v) const {
    return labels[static_cast<std::size_t>(v)] != kNoLabel;
  }
  [[nodiscard]] Label LabelOf(NodeId v) const {
    return labels[static_cast<std::size_t>(v)];
  }

  // Terminals in increasing node order.
  [[nodiscard]] std::vector<NodeId> Terminals() const;
  // Distinct labels in increasing order.
  [[nodiscard]] std::vector<Label> DistinctLabels() const;
  // t := |T|.
  [[nodiscard]] int NumTerminals() const;
  // k := |Λ|.
  [[nodiscard]] int NumComponents() const;
  // Number of components with >= 2 terminals (k0 in Corollary 4.21).
  [[nodiscard]] int NumNontrivialComponents() const;
  // True if every component has >= 2 terminals (Definition: minimal instance).
  [[nodiscard]] bool IsMinimal() const;
};

// DSF with Connection Requests.
struct CrInstance {
  std::vector<std::vector<NodeId>> requests;  // R_v per node

  [[nodiscard]] int NumNodes() const noexcept {
    return static_cast<int>(requests.size());
  }
  // Terminal set per Definition 2.1.
  [[nodiscard]] std::vector<NodeId> Terminals() const;
  [[nodiscard]] int NumTerminals() const;
  // Total number of requests (counting each direction as given).
  [[nodiscard]] int NumRequests() const;
};

// Builds an IcInstance with the given (node, label) pairs; all other nodes ⊥.
IcInstance MakeIcInstance(int n, const std::vector<std::pair<NodeId, Label>>& assignment);

// Builds a CrInstance from symmetric terminal pairs.
CrInstance MakeCrInstance(int n, const std::vector<std::pair<NodeId, NodeId>>& pairs);

// Lemma 2.3 (centralized reference): the equivalent IC instance — labels are
// the connected components of the "request graph" on terminals.
IcInstance CrToIc(const CrInstance& cr);

// Lemma 2.4 (centralized reference): drops labels with a single terminal.
IcInstance MakeMinimal(const IcInstance& ic);

}  // namespace dsf
