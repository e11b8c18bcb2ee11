#include "workload/import.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "common/text.hpp"

namespace dsf {

namespace {

constexpr long long kMaxImportNodes = 1'000'000;

std::string Lower(std::string_view text) {
  std::string s(text);
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

// Both formats carry 1-based node ids and may list an edge twice (arcs in
// both directions, stray duplicates). Self-loops are dropped — they can
// never appear in a Steiner forest — and duplicates keep the minimum
// weight, which is the only weight a solver could use.
class EdgeAccumulator {
 public:
  void Add(NodeId u, NodeId v, Weight w) {
    if (u == v) return;
    if (u > v) std::swap(u, v);
    const auto key = std::make_pair(u, v);
    const auto [it, inserted] = min_weight_.insert({key, w});
    if (!inserted && w < it->second) it->second = w;
  }

  [[nodiscard]] Graph Build(int n) const {
    Graph g(n);
    for (const auto& [key, w] : min_weight_) {
      g.AddEdge(key.first, key.second, w);
    }
    g.Finalize();
    return g;
  }

  [[nodiscard]] std::size_t RawCount() const noexcept { return raw_count_; }
  void CountRaw() noexcept { ++raw_count_; }

 private:
  std::map<std::pair<NodeId, NodeId>, Weight> min_weight_;
  std::size_t raw_count_ = 0;
};

}  // namespace

ImportedWorkload ParseSteinLib(std::istream& in, const std::string& origin) {
  // STP has no comment byte: remarks live in SECTION Comment.
  LineReader r(in, origin, kNoComment);
  bool saw_magic = false;
  bool saw_eof = false;
  long long n = -1;
  long long declared_edges = -1;
  long long declared_terminals = -1;
  EdgeAccumulator edges;
  std::vector<NodeId> terminals;
  // "" = top level, otherwise the lowercased active SECTION name.
  std::string section;

  const auto want_node = [&](const char* what) -> NodeId {
    if (n < 0) r.Fail("'Nodes' must precede edge/terminal lines");
    return static_cast<NodeId>(r.Int(what, 1, n) - 1);  // to 0-based
  };

  while (r.Next()) {
    const std::string keyword = Lower(r.Head());
    if (!saw_magic) {
      // "33D32945 STP File, STP Format Version 1.0"
      if (keyword != "33d32945") {
        r.Fail("not a SteinLib file (missing 33D32945 magic)");
      }
      saw_magic = true;
      continue;
    }
    if (saw_eof) r.Fail("content after EOF keyword");

    if (section.empty()) {
      if (keyword == "section") {
        section = Lower(r.Word("a SECTION name"));
        r.End();
      } else if (keyword == "eof") {
        saw_eof = true;
        r.End();
      } else {
        r.Fail("expected SECTION or EOF, got '" + std::string(r.Head()) +
               "'");
      }
      continue;
    }

    if (keyword == "end") {
      section.clear();
      continue;
    }

    if (section == "graph") {
      if (keyword == "nodes") {
        n = r.Int("node count", 1, kMaxImportNodes);
      } else if (keyword == "edges" || keyword == "arcs") {
        declared_edges = r.Int("edge count");
      } else if (keyword == "e" || keyword == "a") {
        const NodeId u = want_node("endpoint");
        const NodeId v = want_node("endpoint");
        edges.Add(u, v, r.Int("edge weight", 1, kMaxEdgeWeight));
        edges.CountRaw();
      } else {
        r.Fail("unknown Graph keyword '" + std::string(r.Head()) + "'");
      }
      r.End();
    } else if (section == "terminals") {
      if (keyword == "terminals") {
        declared_terminals = r.Int("terminal count");
      } else if (keyword == "t") {
        terminals.push_back(want_node("terminal node"));
      } else if (keyword == "root" || keyword == "rootp") {
        // Rooted variants: the root is just another terminal for DSF.
        terminals.push_back(want_node("root node"));
      } else {
        r.Fail("unknown Terminals keyword '" + std::string(r.Head()) + "'");
      }
      r.End();
    }
    // Other sections (Comment, Coordinates, MaximumDegrees, ...) are
    // skipped line by line until their END.
  }

  if (!saw_magic) r.Fail("empty file (missing 33D32945 magic)");
  if (!section.empty()) r.Fail("unterminated SECTION " + section);
  if (!saw_eof) r.Fail("missing EOF keyword");
  if (n < 0) r.Fail("no SECTION Graph / Nodes line");
  if (declared_edges >= 0 &&
      declared_edges != static_cast<long long>(edges.RawCount())) {
    r.Fail("Edges declares " + std::to_string(declared_edges) + " but " +
           std::to_string(edges.RawCount()) + " edge lines were given");
  }

  ImportedWorkload out;
  out.graph = edges.Build(static_cast<int>(n));
  std::sort(terminals.begin(), terminals.end());
  terminals.erase(std::unique(terminals.begin(), terminals.end()),
                  terminals.end());
  if (declared_terminals >= 0 &&
      declared_terminals != static_cast<long long>(terminals.size())) {
    r.Fail("Terminals declares " + std::to_string(declared_terminals) +
           " but " + std::to_string(terminals.size()) +
           " distinct terminals were given");
  }
  if (!terminals.empty()) {
    std::vector<std::pair<NodeId, Label>> assign;
    assign.reserve(terminals.size());
    for (const NodeId t : terminals) assign.push_back({t, 1});
    out.terminals = MakeIcInstance(static_cast<int>(n), assign);
    out.has_terminals = true;
  }
  return out;
}

ImportedWorkload LoadSteinLib(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read SteinLib file: " + path);
  return ParseSteinLib(in, path);
}

ImportedWorkload ParseDimacs(std::istream& in, const std::string& origin) {
  // DIMACS has no comment byte: remarks are whole `c` lines.
  LineReader r(in, origin, kNoComment);
  long long n = -1;
  long long declared_edges = -1;
  EdgeAccumulator edges;

  while (r.Next()) {
    const std::string keyword = Lower(r.Head());
    if (keyword == "c" || keyword == "n") continue;  // comment / node label

    if (keyword == "p") {
      if (n >= 0) r.Fail("duplicate 'p' header");
      (void)r.Word("problem kind");
      n = r.Int("node count", 1, kMaxImportNodes);
      declared_edges = r.Int("edge count");
    } else if (keyword == "e" || keyword == "a") {
      if (n < 0) r.Fail("'p' header must come first");
      const long long u = r.Int("endpoint", 1, n);
      const long long v = r.Int("endpoint", 1, n);
      // Unweighted DIMACS variants omit the weight.
      const Weight w = r.AtEnd() ? 1 : r.Int("edge weight", 1, kMaxEdgeWeight);
      edges.Add(static_cast<NodeId>(u - 1), static_cast<NodeId>(v - 1), w);
      edges.CountRaw();
    } else {
      r.Fail("unknown DIMACS line '" + std::string(r.Head()) + "'");
    }
    r.End();
  }

  if (n < 0) r.Fail("no 'p' header");
  if (declared_edges >= 0 &&
      declared_edges != static_cast<long long>(edges.RawCount())) {
    r.Fail("header declares " + std::to_string(declared_edges) +
           " edges but " + std::to_string(edges.RawCount()) +
           " edge lines were given");
  }

  ImportedWorkload out;
  out.graph = edges.Build(static_cast<int>(n));
  return out;
}

ImportedWorkload LoadDimacs(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read DIMACS file: " + path);
  return ParseDimacs(in, path);
}

}  // namespace dsf
