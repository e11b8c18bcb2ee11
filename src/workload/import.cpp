#include "workload/import.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/text.hpp"

namespace dsf {

namespace {

constexpr long long kMaxImportNodes = 1'000'000;

[[noreturn]] void Fail(const std::string& origin, int line,
                       const std::string& what) {
  std::ostringstream os;
  os << origin << ":" << line << ": " << what;
  throw std::runtime_error(os.str());
}

std::string Lower(std::string s) {
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

void CheckEdgeWeight(long long w, const std::string& origin, int line) {
  if (w < 1 || w > kMaxEdgeWeight) {
    Fail(origin, line,
         "edge weight must be in [1, " + std::to_string(kMaxEdgeWeight) + "]");
  }
}

ImportedWorkload ParseSteinLib(std::istream& in, const std::string& origin) {
  std::string raw;
  int line = 0;
  bool saw_magic = false;
  bool saw_eof = false;
  long long n = -1;
  long long declared_edges = -1;
  long long declared_terminals = -1;
  EdgeAccumulator edges;
  std::vector<NodeId> terminals;
  // "" = top level, otherwise the lowercased active SECTION name.
  std::string section;

  const auto node_in_range = [&](long long v, int at) -> NodeId {
    if (n < 0) Fail(origin, at, "'Nodes' must precede edge/terminal lines");
    if (v < 1 || v > n) {
      Fail(origin, at, "node " + std::to_string(v) + " out of range [1, " +
                           std::to_string(n) + "]");
    }
    return static_cast<NodeId>(v - 1);  // to 0-based
  };

  std::istringstream fields;
  // A typo in a numeric column ("7x", an extra token) must fail, not import
  // a silently different graph.
  const auto no_trailing = [&](const std::string& head) {
    std::string trailing;
    if (fields >> trailing) {
      Fail(origin, line, "trailing tokens after '" + head + "'");
    }
  };

  while (ReadLine(in, raw)) {
    ++line;
    fields = std::istringstream(raw);
    std::string head;
    if (!(fields >> head)) continue;  // blank line
    if (!saw_magic) {
      // "33D32945 STP File, STP Format Version 1.0"
      if (Lower(head) != "33d32945") {
        Fail(origin, line, "not a SteinLib file (missing 33D32945 magic)");
      }
      saw_magic = true;
      continue;
    }
    if (saw_eof) Fail(origin, line, "content after EOF keyword");
    const std::string keyword = Lower(head);

    if (section.empty()) {
      if (keyword == "section") {
        std::string name;
        if (!(fields >> name)) Fail(origin, line, "SECTION needs a name");
        section = Lower(name);
        no_trailing(head);
      } else if (keyword == "eof") {
        saw_eof = true;
        no_trailing(head);
      } else {
        Fail(origin, line, "expected SECTION or EOF, got '" + head + "'");
      }
      continue;
    }

    if (keyword == "end") {
      section.clear();
      continue;
    }

    if (section == "graph") {
      const auto want = [&](const char* what) -> long long {
        long long value = 0;
        if (!(fields >> value)) {
          Fail(origin, line,
               std::string("expected ") + what + " after '" + head + "'");
        }
        return value;
      };
      if (keyword == "nodes") {
        const long long value = want("node count");
        if (value < 1 || value > kMaxImportNodes) {
          Fail(origin, line, "Nodes must be in [1, " +
                                 std::to_string(kMaxImportNodes) + "]");
        }
        n = value;
        no_trailing(head);
      } else if (keyword == "edges" || keyword == "arcs") {
        declared_edges = want("edge count");
        no_trailing(head);
      } else if (keyword == "e" || keyword == "a") {
        const NodeId u = node_in_range(want("endpoint"), line);
        const NodeId v = node_in_range(want("endpoint"), line);
        const long long w = want("weight");
        no_trailing(head);
        CheckEdgeWeight(w, origin, line);
        edges.Add(u, v, static_cast<Weight>(w));
        edges.CountRaw();
      } else {
        Fail(origin, line, "unknown Graph keyword '" + head + "'");
      }
    } else if (section == "terminals") {
      if (keyword == "terminals") {
        long long value = 0;
        if (!(fields >> value)) Fail(origin, line, "expected terminal count");
        declared_terminals = value;
        no_trailing(head);
      } else if (keyword == "t") {
        long long value = 0;
        if (!(fields >> value)) Fail(origin, line, "expected terminal node");
        terminals.push_back(node_in_range(value, line));
        no_trailing(head);
      } else if (keyword == "root" || keyword == "rootp") {
        // Rooted variants: the root is just another terminal for DSF.
        long long value = 0;
        if (!(fields >> value)) Fail(origin, line, "expected root node");
        terminals.push_back(node_in_range(value, line));
        no_trailing(head);
      } else {
        Fail(origin, line, "unknown Terminals keyword '" + head + "'");
      }
    }
    // Other sections (Comment, Coordinates, MaximumDegrees, ...) are
    // skipped line by line until their END.
  }

  if (!saw_magic) Fail(origin, line, "empty file (missing 33D32945 magic)");
  if (!section.empty()) {
    Fail(origin, line, "unterminated SECTION " + section);
  }
  if (!saw_eof) Fail(origin, line, "missing EOF keyword");
  if (n < 0) Fail(origin, line, "no SECTION Graph / Nodes line");
  if (declared_edges >= 0 &&
      declared_edges != static_cast<long long>(edges.RawCount())) {
    Fail(origin, line,
         "Edges declares " + std::to_string(declared_edges) + " but " +
             std::to_string(edges.RawCount()) + " edge lines were given");
  }

  ImportedWorkload out;
  out.graph = edges.Build(static_cast<int>(n));
  std::sort(terminals.begin(), terminals.end());
  terminals.erase(std::unique(terminals.begin(), terminals.end()),
                  terminals.end());
  if (declared_terminals >= 0 &&
      declared_terminals != static_cast<long long>(terminals.size())) {
    Fail(origin, line,
         "Terminals declares " + std::to_string(declared_terminals) +
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
  std::string raw;
  int line = 0;
  long long n = -1;
  long long declared_edges = -1;
  EdgeAccumulator edges;

  std::istringstream fields;
  // A typo in a numeric column ("7x", an extra token) must fail, not import
  // a silently different graph.
  const auto no_trailing = [&](const std::string& head) {
    std::string trailing;
    if (fields >> trailing) {
      Fail(origin, line, "trailing tokens after '" + head + "'");
    }
  };

  while (ReadLine(in, raw)) {
    ++line;
    fields = std::istringstream(raw);
    std::string head;
    if (!(fields >> head)) continue;
    const std::string keyword = Lower(head);
    if (keyword == "c" || keyword == "n") continue;  // comment / node label

    if (keyword == "p") {
      if (n >= 0) Fail(origin, line, "duplicate 'p' header");
      std::string kind;
      long long nodes = 0;
      long long m = 0;
      if (!(fields >> kind >> nodes >> m)) {
        Fail(origin, line, "expected 'p <kind> <nodes> <edges>'");
      }
      if (nodes < 1 || nodes > kMaxImportNodes) {
        Fail(origin, line, "node count must be in [1, " +
                               std::to_string(kMaxImportNodes) + "]");
      }
      n = nodes;
      declared_edges = m;
      no_trailing(head);
    } else if (keyword == "e" || keyword == "a") {
      if (n < 0) Fail(origin, line, "'p' header must come first");
      long long u = 0;
      long long v = 0;
      if (!(fields >> u >> v)) {
        Fail(origin, line, "expected two endpoints after '" + head + "'");
      }
      long long w = 1;  // unweighted DIMACS variants omit the weight
      if (fields >> w) {
        no_trailing(head);
      } else if (!fields.eof()) {
        Fail(origin, line, "invalid weight after '" + head + "'");
      } else {
        w = 1;  // omitted: failed extraction zeroed it
      }
      if (u < 1 || u > n || v < 1 || v > n) {
        Fail(origin, line, "endpoint out of range [1, " + std::to_string(n) +
                               "]");
      }
      CheckEdgeWeight(w, origin, line);
      edges.Add(static_cast<NodeId>(u - 1), static_cast<NodeId>(v - 1),
                static_cast<Weight>(w));
      edges.CountRaw();
    } else {
      Fail(origin, line, "unknown DIMACS line '" + head + "'");
    }
  }

  if (n < 0) Fail(origin, line, "no 'p' header");
  if (declared_edges >= 0 &&
      declared_edges != static_cast<long long>(edges.RawCount())) {
    Fail(origin, line,
         "header declares " + std::to_string(declared_edges) + " edges but " +
             std::to_string(edges.RawCount()) + " edge lines were given");
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
