#include "workload/churn.hpp"

#include <fstream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/random.hpp"
#include "common/text.hpp"

namespace dsf {
namespace {

struct ActivePair {
  NodeId u = kNoNode;
  NodeId v = kNoNode;
  Label label = kNoLabel;
};

}  // namespace

InstanceDelta ToDelta(const ChurnStep& step) {
  InstanceDelta delta;
  delta.add_terminals = step.add_terminals;
  delta.remove_terminals = step.remove_terminals;
  return delta;
}

IcInstance ChurnTrace::StateAt(int steps_applied) const {
  IcInstance state = base;
  for (int i = 0; i < steps_applied; ++i) {
    state = ApplyDelta(state, ToDelta(steps[static_cast<std::size_t>(i)]));
  }
  return state;
}

ChurnTrace SampleChurnTrace(int n, int range, int pairs, int num_steps,
                            int churn, std::uint64_t seed) {
  if (range == 0) range = n;
  if (range < 0 || range > n) {
    throw std::runtime_error("churn: draw range " + std::to_string(range) +
                             " outside [0, " + std::to_string(n) + "]");
  }
  if (pairs < 1) throw std::runtime_error("churn: needs at least one pair");
  if (churn > pairs) {
    throw std::runtime_error("churn: churn " + std::to_string(churn) +
                             " exceeds the pair population " +
                             std::to_string(pairs));
  }
  if (range < 2 * pairs + 2) {
    throw std::runtime_error(
        "churn: needs a draw range of at least 2 * pairs + 2 = " +
        std::to_string(2 * pairs + 2) + " nodes, have " +
        std::to_string(range));
  }

  SplitMix64 rng(seed);
  std::vector<char> used(static_cast<std::size_t>(range), 0);
  std::vector<ActivePair> active;
  active.reserve(static_cast<std::size_t>(pairs));
  Label next_label = 1;

  const auto draw_free = [&]() {
    NodeId v = 0;
    do {
      v = static_cast<NodeId>(rng.NextBelow(static_cast<std::uint64_t>(range)));
    } while (used[static_cast<std::size_t>(v)]);
    used[static_cast<std::size_t>(v)] = 1;
    return v;
  };
  const auto arrive = [&]() {
    ActivePair p;
    p.u = draw_free();
    p.v = draw_free();
    p.label = next_label++;
    active.push_back(p);
    return p;
  };

  ChurnTrace trace;
  std::vector<std::pair<NodeId, Label>> assign;
  for (int i = 0; i < pairs; ++i) {
    const ActivePair p = arrive();
    assign.push_back({p.u, p.label});
    assign.push_back({p.v, p.label});
  }
  trace.base = MakeIcInstance(n, assign);

  trace.steps.reserve(static_cast<std::size_t>(num_steps));
  for (int s = 0; s < num_steps; ++s) {
    ChurnStep step;
    for (int c = 0; c < churn; ++c) {
      const auto idx = static_cast<std::size_t>(
          rng.NextBelow(static_cast<std::uint64_t>(active.size())));
      const ActivePair p = active[idx];
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(idx));
      used[static_cast<std::size_t>(p.u)] = 0;
      used[static_cast<std::size_t>(p.v)] = 0;
      step.remove_terminals.push_back(p.u);
      step.remove_terminals.push_back(p.v);
    }
    for (int c = 0; c < churn; ++c) {
      const ActivePair p = arrive();
      step.add_terminals.push_back({p.u, p.label});
      step.add_terminals.push_back({p.v, p.label});
    }
    trace.steps.push_back(std::move(step));
  }
  return trace;
}

void WriteChurnTrace(std::ostream& out, const ChurnTrace& trace) {
  out << "dsf-churn 1\n";
  out << "nodes " << trace.base.NumNodes() << "\n";
  const std::vector<NodeId> terminals = trace.base.Terminals();
  out << "base " << terminals.size() << "\n";
  for (const NodeId v : terminals) {
    out << "t " << v << " " << trace.base.LabelOf(v) << "\n";
  }
  out << "steps " << trace.steps.size() << "\n";
  for (std::size_t i = 0; i < trace.steps.size(); ++i) {
    const ChurnStep& step = trace.steps[i];
    out << "step " << i << "\n";
    for (const NodeId v : step.remove_terminals) out << "rm " << v << "\n";
    for (const auto& [v, label] : step.add_terminals) {
      out << "add " << v << " " << label << "\n";
    }
  }
  out << "eof\n";
}

ChurnTrace ParseChurnTrace(std::istream& in, std::string_view origin) {
  LineReader r(in, std::string(origin), '#');
  // Record lines arrive in a fixed sequence, so the reader demands each one
  // by its keyword instead of dispatching on whatever appears.
  const auto expect = [&](const std::string& keyword) {
    if (!r.Next()) {
      r.Fail("unexpected end of file (expected '" + keyword + "')");
    }
    if (r.Head() != keyword) {
      r.Fail("expected '" + keyword + "', got '" + std::string(r.Head()) +
             "'");
    }
  };

  expect("dsf-churn");
  if (r.Int("format version") != 1) r.Fail("unsupported dsf-churn version");
  r.End();

  expect("nodes");
  const long long n = r.Int("node count", 1, 100'000'000);
  r.End();
  const auto want_node = [&] {
    return static_cast<NodeId>(r.Int("node", 0, n - 1));
  };
  const auto want_label = [&] {
    return static_cast<Label>(
        r.Int("label", 1, std::numeric_limits<Label>::max()));
  };

  expect("base");
  const long long base_count = r.Int("base terminal count", 0, n);
  r.End();
  std::vector<std::pair<NodeId, Label>> assign;
  assign.reserve(static_cast<std::size_t>(base_count));
  NodeId prev = -1;
  for (long long i = 0; i < base_count; ++i) {
    expect("t");
    const NodeId v = want_node();
    const Label label = want_label();
    r.End();
    if (v <= prev) {
      r.Fail("base terminals must be listed in increasing node order");
    }
    prev = v;
    assign.push_back({v, label});
  }

  ChurnTrace trace;
  trace.base = MakeIcInstance(static_cast<int>(n), assign);

  expect("steps");
  const long long num_steps = r.Int("step count", 0, 1'000'000);
  r.End();
  trace.steps.reserve(static_cast<std::size_t>(num_steps));

  // Step bodies have no count headers: rm/add lines run until the next
  // `step`/`eof` keyword, which the body loop hands back to the reader.
  for (long long s = 0; s < num_steps; ++s) {
    expect("step");
    if (r.Int("step index") != s) {
      r.Fail("step indices must run 0.." + std::to_string(num_steps - 1) +
             " in order");
    }
    r.End();
    ChurnStep step;
    bool in_adds = false;
    while (true) {
      if (!r.Next()) {
        r.Fail("unexpected end of file inside step " + std::to_string(s));
      }
      if (r.Head() == "rm") {
        if (in_adds) r.Fail("'rm' lines must precede 'add' lines");
        step.remove_terminals.push_back(want_node());
        r.End();
      } else if (r.Head() == "add") {
        in_adds = true;
        const NodeId v = want_node();
        const Label label = want_label();
        r.End();
        step.add_terminals.push_back({v, label});
      } else {
        r.Unread();  // next step's header or the trailer
        break;
      }
    }
    trace.steps.push_back(std::move(step));
  }

  expect("eof");
  r.End();
  if (r.Next()) r.Fail("content after eof trailer");
  return trace;
}

void SaveChurnTrace(const std::string& path, const ChurnTrace& trace) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write churn trace: " + path);
  WriteChurnTrace(out, trace);
  out.flush();
  if (!out) throw std::runtime_error("failed writing churn trace: " + path);
}

ChurnTrace LoadChurnTrace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read churn trace: " + path);
  return ParseChurnTrace(in, path);
}

}  // namespace dsf
