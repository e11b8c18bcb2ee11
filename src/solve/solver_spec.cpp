#include "solve/solver_spec.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/text.hpp"
#include "solve/solver.hpp"

namespace dsf {

namespace {

[[noreturn]] void Fail(const std::string& msg) {
  throw std::runtime_error("solver spec: " + msg);
}

// Registry position of `name`; -1 when unknown. Defines the canonical
// roster order and the deterministic mode=all tie-break.
int RegistryIndex(std::string_view name) {
  const auto names = SolverRegistry::Names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

std::string SolverSpec::Canonical() const {
  if (!IsPortfolio()) return base;
  std::string out = "portfolio(roster=";
  for (std::size_t i = 0; i < roster.size(); ++i) {
    if (i > 0) out += '+';
    out += roster[i];
  }
  out += ",mode=" + mode;
  if (deadline_ms > 0) {
    out += ",deadline_ms=" + std::to_string(deadline_ms);
  }
  out += ')';
  return out;
}

SolverSpec ParseSolverSpec(std::string_view text) {
  SolverSpec spec;
  text = Trim(text);
  if (text.empty()) Fail("empty solver name");

  const auto open = text.find('(');
  if (open == std::string_view::npos) {
    spec.base = std::string(text);
  } else {
    if (text.back() != ')') {
      Fail("expected ')' at the end of '" + std::string(text) + "'");
    }
    spec.base = std::string(Trim(text.substr(0, open)));
    const std::string_view inner =
        text.substr(open + 1, text.size() - open - 2);
    if (spec.base != "portfolio") {
      Fail("only 'portfolio' accepts parameters (got '" + spec.base + "')");
    }
    for (const std::string_view kv : SplitOn(inner, ',')) {
      if (kv.empty()) continue;
      const auto eq = kv.find('=');
      if (eq == std::string_view::npos) {
        Fail("expected key=value, got '" + std::string(kv) + "'");
      }
      const std::string_view key = Trim(kv.substr(0, eq));
      const std::string_view value = Trim(kv.substr(eq + 1));
      if (key == "roster") {
        for (const std::string_view member : SplitOn(value, '+')) {
          if (member.empty()) Fail("empty roster member");
          spec.roster.emplace_back(member);
        }
      } else if (key == "mode") {
        if (value != "all" && value != "first") {
          Fail("mode must be 'all' or 'first', got '" + std::string(value) +
               "'");
        }
        spec.mode = std::string(value);
      } else if (key == "deadline_ms") {
        const auto ms = ParseNumber<int>(value);
        if (!ms || *ms < 1 || *ms > 1'000'000'000) {
          Fail("deadline_ms must be an integer in [1, 1000000000], got '" +
               std::string(value) + "'");
        }
        spec.deadline_ms = *ms;
      } else {
        Fail("unknown key '" + std::string(key) +
             "' (expected roster, mode, or deadline_ms)");
      }
    }
  }

  if (RegistryIndex(spec.base) < 0) {
    Fail("unknown solver '" + spec.base + "'");
  }
  if (!spec.IsPortfolio()) {
    if (!spec.roster.empty()) Fail("only 'portfolio' takes a roster");
    return spec;
  }

  if (spec.roster.empty()) {
    for (const std::string_view name : kDefaultPortfolioRoster) {
      spec.roster.emplace_back(name);
    }
  }
  for (const std::string& member : spec.roster) {
    if (member == "portfolio") Fail("portfolio cannot nest itself");
    if (RegistryIndex(member) < 0) {
      Fail("unknown roster member '" + member + "'");
    }
  }
  // Canonicalize: registry order, duplicates dropped.
  std::sort(spec.roster.begin(), spec.roster.end(),
            [](const std::string& a, const std::string& b) {
              return RegistryIndex(a) < RegistryIndex(b);
            });
  spec.roster.erase(std::unique(spec.roster.begin(), spec.roster.end()),
                    spec.roster.end());
  return spec;
}

bool IsValidSolverSpec(std::string_view text, std::string* error) {
  try {
    (void)ParseSolverSpec(text);
    return true;
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

std::vector<std::string> SplitSolverList(std::string_view list) {
  std::vector<std::string> out;
  int depth = 0;
  std::string current;
  for (const char c : list) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == ',' && depth == 0) {
      const std::string_view t = Trim(current);
      if (!t.empty()) out.emplace_back(t);
      current.clear();
      continue;
    }
    current += c;
  }
  const std::string_view t = Trim(current);
  if (!t.empty()) out.emplace_back(t);
  return out;
}

}  // namespace dsf
