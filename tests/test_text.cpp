// The shared text rules (common/text.hpp): the whole-token number reader,
// the line reader, the comment byte of each grammar, and a deterministic
// token-mutation fuzz over every parser that reads through them.
#include "common/text.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cli/json.hpp"
#include "common/random.hpp"
#include "serve/client.hpp"
#include "serve/fault.hpp"
#include "solve/solver_spec.hpp"
#include "suite/baseline.hpp"
#include "suite/manifest.hpp"
#include "workload/churn.hpp"
#include "workload/import.hpp"
#include "workload/spec.hpp"

namespace dsf {
namespace {

std::string ErrorOf(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// --- ParseNumber ----------------------------------------------------------

TEST(ParseNumberTest, ReadsOnlyWholeDecimalTokens) {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  constexpr auto kUMax = std::numeric_limits<std::uint64_t>::max();
  struct Row {
    std::string_view token;
    std::optional<std::int64_t> i64;
    std::optional<std::uint64_t> u64;
    std::optional<double> real;
  };
  const Row rows[] = {
      {"1", 1, 1, 1.0},
      {"+1", {}, {}, {}},
      {" 1", {}, {}, {}},
      {"1 ", {}, {}, {}},
      {"1x", {}, {}, {}},
      {"", {}, {}, {}},
      {"0x10", {}, {}, {}},
      {"-0", 0, {}, -0.0},
      {"-1", -1, {}, -1.0},
      {"-9223372036854775808", kMin, {}, -0x1p63},
      {"-9223372036854775809", {}, {}, -0x1p63},
      {"9223372036854775807", kMax, kMax, 0x1p63},
      {"18446744073709551615", {}, kUMax, 0x1p64},
      {"18446744073709551616", {}, {}, 0x1p64},
      {"1.5", {}, {}, 1.5},
      {"1e3", {}, {}, 1000.0},
      {"inf", {}, {}, {}},
      {"-inf", {}, {}, {}},
      {"nan", {}, {}, {}},
      {"1e999", {}, {}, {}},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(ParseNumber<std::int64_t>(row.token), row.i64) << row.token;
    EXPECT_EQ(ParseNumber<std::uint64_t>(row.token), row.u64) << row.token;
    EXPECT_EQ(ParseNumber<double>(row.token), row.real) << row.token;
  }
  EXPECT_EQ(ParseNumber<int>("2147483647"), 2147483647);
  EXPECT_FALSE(ParseNumber<int>("2147483648"));
}

TEST(SplitOnTest, TrimsEveryPieceAndKeepsEmptyOnes) {
  using Pieces = std::vector<std::string_view>;
  EXPECT_EQ(SplitOn(" a ,, b\t", ','), (Pieces{"a", "", "b"}));
  EXPECT_EQ(SplitOn("", ','), (Pieces{""}));
  EXPECT_EQ(Trim("\r\n\v\f a b \t"), "a b");
}

// --- LineReader -----------------------------------------------------------

TEST(LineReaderTest, ReadsTypedTokensWithOneRecordOfLookahead) {
  std::istringstream in(
      "  head 12\t-3 word  # comment\r\n"
      "\n"
      "# a comment line\n"
      "next\v1.5\fx\r\n");
  LineReader r(in, "<t>", '#');
  ASSERT_TRUE(r.Next());
  EXPECT_EQ(r.Head(), "head");
  EXPECT_EQ(r.Line(), 1);
  EXPECT_EQ(r.Int("a", 0, 20), 12);
  EXPECT_EQ(r.Int("b"), -3);
  EXPECT_EQ(r.Word("c"), "word");
  EXPECT_TRUE(r.AtEnd());
  r.End();

  ASSERT_TRUE(r.Next());
  EXPECT_EQ(r.Head(), "next");
  EXPECT_EQ(r.Line(), 4);
  r.Unread();
  ASSERT_TRUE(r.Next());
  EXPECT_EQ(r.Line(), 4);
  EXPECT_EQ(r.Real("d", 0.0, 2.0), 1.5);
  EXPECT_EQ(ErrorOf([&] { r.End(); }), "<t>:4: trailing tokens after 'next'");
  EXPECT_EQ(r.Token(), "x");
  EXPECT_EQ(r.Token(), std::nullopt);
  EXPECT_EQ(ErrorOf([&] { (void)r.Word("e"); }),
            "<t>:4: expected e after 'next'");
  EXPECT_FALSE(r.Next());
}

TEST(LineReaderTest, NamesTheTokenAndTheRangeItMisses) {
  std::istringstream in("n +1\nn 12\nn 3as\n");
  LineReader r(in, "<t>", kNoComment);
  ASSERT_TRUE(r.Next());
  EXPECT_EQ(ErrorOf([&] { (void)r.Int("count", 0, 9); }),
            "<t>:1: expected count after 'n', got '+1'");
  ASSERT_TRUE(r.Next());
  EXPECT_EQ(ErrorOf([&] { (void)r.Int("count", 0, 9); }),
            "<t>:2: count must be in [0, 9], got 12");
  ASSERT_TRUE(r.Next());
  EXPECT_EQ(ErrorOf([&] { (void)r.Int("count", 0, 9); }),
            "<t>:3: expected count after 'n', got '3as'");
}

// --- the comment byte of each grammar ---------------------------------------

// '#' starts a comment running to the end of the line, even glued to a
// token, in the three dsf grammars (spec, manifest, churn trace). SteinLib
// and DIMACS have no comment byte: their remarks are a SECTION Comment and
// whole `c` lines, so '#' is an ordinary byte there and fails.
TEST(CommentRuleTest, HashCutsTheLineInDsfGrammarsOnly) {
  std::istringstream trace(
      "#c written by hand\n"
      "dsf-churn 1 # v1\n"
      "nodes 4#four\n"
      "base 2\n"
      "t 0 1\n"
      "  # an indented comment\n"
      "t 3 1\n"
      "steps 1\n"
      "step 0\n"
      "rm 0 # leaves\n"
      "add 1 1#joins\n"
      "eof # trailer\n"
      "#\n");
  const ChurnTrace t = ParseChurnTrace(trace, "<trace>");
  EXPECT_EQ(t.base.NumNodes(), 4);
  EXPECT_EQ(t.base.Terminals(), (std::vector<NodeId>{0, 3}));
  ASSERT_EQ(t.steps.size(), 1u);
  EXPECT_EQ(t.steps[0].remove_terminals, std::vector<NodeId>{0});

  std::istringstream spec(
      "graph 2 as g # named\n"
      "edge 0 1 5#heavy\n"
      "ic a # one pair\n"
      "terminal 0 1\n"
      "terminal 1 1\n");
  const WorkloadSpec w = ParseWorkloadSpec(spec, "<spec>");
  ASSERT_EQ(w.cases.size(), 1u);
  EXPECT_EQ(w.cases[0].name, "g");
  ASSERT_EQ(w.cases[0].edges.size(), 1u);
  EXPECT_EQ(w.cases[0].edges[0].w, 5);

  std::istringstream manifest(
      "solver gw-moat # reference\n"
      "timing-reps 2#two\n"
      "stp a.stp # source\n");
  const SuiteManifest m = ParseSuiteManifest(manifest, "<manifest>");
  EXPECT_EQ(m.timing_reps, 2);
  ASSERT_EQ(m.sources.size(), 1u);
  EXPECT_EQ(m.sources[0].path, "a.stp");

  const auto stp_error = [](const std::string& text) {
    return ErrorOf([&] {
      std::istringstream in(text);
      (void)ParseSteinLib(in, "<stp>");
    });
  };
  EXPECT_EQ(stp_error("33D32945 STP\nSECTION Graph\nNodes 2\nEdges 1\n"
                      "E 1 2 1 # note\nEND\nEOF\n")
                .rfind("<stp>:5:", 0),
            0u);
  EXPECT_EQ(stp_error("33D32945 STP\nSECTION Graph\n# note\nNodes 2\n"
                      "END\nEOF\n")
                .rfind("<stp>:3:", 0),
            0u);
  const auto dimacs_error = [](const std::string& text) {
    return ErrorOf([&] {
      std::istringstream in(text);
      (void)ParseDimacs(in, "<dimacs>");
    });
  };
  EXPECT_EQ(dimacs_error("p edge 2 1\ne 1 2 1 # note\n")
                .rfind("<dimacs>:2:", 0),
            0u);
  EXPECT_EQ(dimacs_error("# note\np edge 2 1\ne 1 2 1\n")
                .rfind("<dimacs>:1:", 0),
            0u);
}

// --- deterministic parser fuzz ----------------------------------------------

// Numeric replacements: small values, and values outside every count's
// range, so no mutant allocates a large graph or trace (churn accepts up
// to 10^8 nodes).
constexpr std::string_view kNumbers[] = {
    "0",          "1",          "2",
    "7",          "64",         "-1",
    "-0",         "+1",         "1.5",
    "1e3",        "nan",        "inf",
    "0x10",       "2147483648", "4294967297",
    "9223372036854775807",      "9223372036854775808",
    "-9223372036854775808",     "18446744073709551616"};

// `text` as alternating gaps and tokens: text = gaps[0] + tokens[0] +
// gaps[1] + ... + tokens[k-1] + gaps[k]. A token is a run of letters,
// digits, '_' and '.'; every other byte separates.
struct Pieces {
  std::vector<std::string> gaps;
  std::vector<std::string> tokens;

  explicit Pieces(std::string_view text) {
    const auto in_token = [](char c) {
      return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
             (c >= 'A' && c <= 'Z') || c == '_' || c == '.';
    };
    gaps.emplace_back();
    for (const char c : text) {
      if (in_token(c)) {
        if (tokens.size() < gaps.size()) tokens.emplace_back();
        tokens.back() += c;
      } else {
        if (gaps.size() == tokens.size()) gaps.emplace_back();
        gaps.back() += c;
      }
    }
    if (gaps.size() == tokens.size()) gaps.emplace_back();
  }

  [[nodiscard]] std::string Render() const {
    std::string out = gaps[0];
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      out += tokens[i];
      out += gaps[i + 1];
    }
    return out;
  }
};

// One to three token edits, then (sometimes) a cut at a random byte.
std::string Mutate(std::string_view text, SplitMix64& rng) {
  Pieces p(text);
  const int edits = 1 + static_cast<int>(rng.NextBelow(3));
  for (int e = 0; e < edits && !p.tokens.empty(); ++e) {
    const std::size_t k = p.tokens.size();
    const std::size_t i = rng.NextBelow(k);
    switch (rng.NextBelow(6)) {
      case 0:  // delete
        p.tokens.erase(p.tokens.begin() + static_cast<std::ptrdiff_t>(i));
        p.gaps[i] += p.gaps[i + 1];
        p.gaps.erase(p.gaps.begin() + static_cast<std::ptrdiff_t>(i) + 1);
        break;
      case 1:  // duplicate
        p.tokens.insert(p.tokens.begin() + static_cast<std::ptrdiff_t>(i),
                        p.tokens[i]);
        p.gaps.insert(p.gaps.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                      " ");
        break;
      case 2:  // swap
        std::swap(p.tokens[i], p.tokens[rng.NextBelow(k)]);
        break;
      case 3:  // glue to the next token
        if (i + 1 < k) {
          p.tokens[i] += p.tokens[i + 1];
          p.tokens.erase(p.tokens.begin() + static_cast<std::ptrdiff_t>(i) +
                         1);
          p.gaps.erase(p.gaps.begin() + static_cast<std::ptrdiff_t>(i) + 1);
        }
        break;
      case 4: {  // insert '+', '#' or '\r' into the token
        constexpr char kBytes[] = {'+', '#', '\r'};
        p.tokens[i].insert(rng.NextBelow(p.tokens[i].size() + 1), 1,
                           kBytes[rng.NextBelow(3)]);
        break;
      }
      default:  // numeric replacement
        p.tokens[i] = kNumbers[rng.NextBelow(std::size(kNumbers))];
        break;
    }
  }
  std::string out = p.Render();
  if (rng.NextBelow(4) == 0) out.resize(rng.NextBelow(out.size() + 1));
  return out;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct Target {
  std::string seed_name;
  std::string seed_text;
  // Parses one input; throws on a malformed one.
  std::function<void(const std::string&)> parse;
  bool line_grammar;  // its errors must start with "<fuzz>:"
};

std::vector<Target> Targets() {
  const std::string root = std::string(DSF_SOURCE_DIR) + "/scenarios/";
  const auto spec = [](const std::string& text) {
    std::istringstream in(text);
    (void)ParseWorkloadSpec(in, "<fuzz>");
  };
  const auto manifest = [](const std::string& text) {
    std::istringstream in(text);
    (void)ParseSuiteManifest(in, "<fuzz>");
  };
  const auto churn = [](const std::string& text) {
    std::istringstream in(text);
    (void)ParseChurnTrace(in, "<fuzz>");
  };
  const auto stp = [](const std::string& text) {
    std::istringstream in(text);
    (void)ParseSteinLib(in, "<fuzz>");
  };
  const auto dimacs = [](const std::string& text) {
    std::istringstream in(text);
    (void)ParseDimacs(in, "<fuzz>");
  };
  const auto solver = [](const std::string& text) {
    (void)ParseSolverSpec(text);
  };
  const auto fault = [](const std::string& text) {
    FaultInjector injector;
    injector.Configure(text);
  };
  const auto delta = [](const std::string& text) {
    ClientArgs args;
    args.generate = "grid rows=3 cols=3";
    args.revise_base = "0123456789abcdef0123456789abcdef";
    args.delta = text;
    (void)BuildClientRequest(args);
  };

  std::vector<Target> out;
  for (const char* name : {"demo.dsf", "sweep_demo.dsf", "portfolio_demo.dsf",
                           "suite/adversarial.dsf"}) {
    out.push_back({name, ReadFile(root + name), spec, true});
  }
  out.push_back({"suite/manifest.dsf-suite",
                 ReadFile(root + "suite/manifest.dsf-suite"), manifest, true});
  out.push_back({"suite/churn_base.trace",
                 ReadFile(root + "suite/churn_base.trace"), churn, true});
  for (const char* name :
       {"tiny.stp", "suite/b_like_01.stp", "suite/b_like_02.stp",
        "suite/c_like_01.stp", "suite/c_like_02.stp", "suite/d_like_01.stp",
        "suite/d_like_02.stp"}) {
    out.push_back({name, ReadFile(root + name), stp, true});
  }
  out.push_back({"inline dimacs",
                 "c a small graph\np edge 5 5\ne 1 2 4\ne 2 3\na 3 4 2\n"
                 "a 4 3 6\ne 4 5 3\n",
                 dimacs, true});
  out.push_back({"solver spec",
                 "portfolio(roster=gw-moat+mst-prune+greedy-merge,"
                 "mode=first,deadline_ms=50)",
                 solver, false});
  out.push_back({"fault spec",
                 "exit_after=6, drop_every=3,truncate_every=4,"
                 "delay_every=2,delay_ms=15",
                 fault, false});
  out.push_back({"--delta", "add=1-2,rm=3-4 addt=5:2, rmt=6", delta, false});
  out.push_back({"wire request",
                 R"j({"op":"revise","id":7,"base":"0123456789abcdef",)j"
                 R"j("delta":{"add_terminals":[[12,5]],"remove_terminals":)j"
                 R"j([2,22]},"seed":18446744073709551615,"epsilon":0.25,)j"
                 R"j("solvers":["gw-moat","portfolio(mode=first)"]})j",
                 [](const std::string& text) { (void)ParseJson(text); },
                 false});
  out.push_back({"bench/SUITE_baseline.json",
                 ReadFile(std::string(DSF_SOURCE_DIR) +
                          "/bench/SUITE_baseline.json"),
                 [](const std::string& text) {
                   (void)ParseSuiteBaseline(text, "<fuzz>");
                 },
                 false});
  return out;
}

// Every mutant either parses or fails with a std::runtime_error, and a line
// grammar's error names the origin and the line. Anything else escaping (a
// logic_error from a failed DSF_CHECK, out_of_range from a bad substr, ...)
// or a sanitizer report is a parser bug.
TEST(ParserFuzzTest, MutantsFailOnlyWithLocatedRuntimeErrors) {
  constexpr int kMutantsPerSeed = 300;
  SplitMix64 rng(0x5eedf022);
  for (const Target& target : Targets()) {
    ASSERT_NO_THROW(target.parse(target.seed_text)) << target.seed_name;
    int accepted = 0;
    for (int m = 0; m < kMutantsPerSeed; ++m) {
      const std::string text = Mutate(target.seed_text, rng);
      try {
        target.parse(text);
        ++accepted;
      } catch (const std::runtime_error& e) {
        if (target.line_grammar) {
          ASSERT_EQ(std::string_view(e.what()).rfind("<fuzz>:", 0), 0u)
              << target.seed_name << ": " << e.what() << "\n--- input:\n"
              << text;
        }
      } catch (const std::exception& e) {
        FAIL() << target.seed_name << ": non-runtime_error escaped: "
               << e.what() << "\n--- input:\n"
               << text;
      }
    }
    // Some mutants must still parse, or the edits never get past the
    // first error path.
    EXPECT_GT(accepted, 0) << target.seed_name;
  }
}

}  // namespace
}  // namespace dsf
