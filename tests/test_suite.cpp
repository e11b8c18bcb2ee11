// The suite wall: manifest parsing, baseline round-trips, regression
// checks, and the committed corpus staying a fixed point of its generator.
#include "suite/manifest.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "suite/baseline.hpp"
#include "suite/check.hpp"
#include "suite/corpus.hpp"
#include "suite/runner.hpp"

namespace dsf {
namespace {

SuiteManifest ParseString(const std::string& text) {
  std::istringstream in(text);
  return ParseSuiteManifest(in, "<string>");
}

std::string ErrorOf(const std::string& text) {
  try {
    (void)ParseString(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

constexpr char kTinyStp[] =
    "33D32945 STP File, STP Format Version 1.0\n"
    "SECTION Graph\n"
    "Nodes 4\n"
    "Edges 4\n"
    "E 1 2 1\n"
    "E 2 3 2\n"
    "E 3 4 1\n"
    "E 1 4 5\n"
    "END\n"
    "SECTION Terminals\n"
    "Terminals 2\n"
    "T 1\n"
    "T 3\n"
    "END\n"
    "EOF\n";

// Writes a self-contained manifest + one .stp source into TempDir and
// returns the manifest path.
std::string WriteTinySuite() {
  const std::string dir = ::testing::TempDir();
  const std::string stp_path = dir + "/suite_tiny.stp";
  {
    std::ofstream out(stp_path);
    out << kTinyStp;
  }
  const std::string manifest_path = dir + "/suite_tiny.dsf-suite";
  {
    std::ofstream out(manifest_path);
    out << "seed 7\n"
           "solver gw-moat\n"
           "solver mst-prune\n"
           "timing-reps 2\n"
           "latency-band 3\n"
           "latency-floor-ms 50\n"
           "stp suite_tiny.stp\n";
  }
  return manifest_path;
}

// --- manifest parsing --------------------------------------------------------

TEST(SuiteManifestTest, ParsesAllDirectives) {
  const SuiteManifest m = ParseString(
      "# comment\n"
      "seed 9\n"
      "solver gw-moat\n"
      "solver mst-prune\n"
      "timing-reps 5\n"
      "latency-band 2.5\n"
      "latency-floor-ms 10\n"
      "stp a.stp\n"
      "optional-stp b.stp\n"
      "spec c.dsf\n");
  EXPECT_EQ(m.seed, 9u);
  ASSERT_EQ(m.solvers.size(), 2u);
  EXPECT_EQ(m.solvers[0], "gw-moat");
  EXPECT_EQ(m.timing_reps, 5);
  EXPECT_DOUBLE_EQ(m.latency_band, 2.5);
  EXPECT_DOUBLE_EQ(m.latency_floor_ms, 10.0);
  ASSERT_EQ(m.sources.size(), 3u);
  EXPECT_EQ(m.sources[0].kind, SuiteSource::Kind::kStp);
  EXPECT_EQ(m.sources[1].kind, SuiteSource::Kind::kOptionalStp);
  EXPECT_EQ(m.sources[2].kind, SuiteSource::Kind::kSpec);
}

TEST(SuiteManifestTest, ErrorsCarryOriginAndLine) {
  // Unknown directive on line 3.
  EXPECT_NE(ErrorOf("solver gw-moat\nstp a.stp\nfrobnicate 1\n")
                .find("<string>:3:"),
            std::string::npos);
  // Invalid solver spec on line 1.
  EXPECT_NE(ErrorOf("solver no-such-solver\nstp a.stp\n").find("<string>:1:"),
            std::string::npos);
  // Duplicate solver on line 2.
  EXPECT_NE(ErrorOf("solver gw-moat\nsolver gw-moat\nstp a.stp\n")
                .find("<string>:2:"),
            std::string::npos);
  // Duplicate source path on line 3.
  EXPECT_NE(ErrorOf("solver gw-moat\nstp a.stp\nstp a.stp\n")
                .find("<string>:3:"),
            std::string::npos);
  // Out-of-range knob.
  EXPECT_NE(ErrorOf("solver gw-moat\ntiming-reps 0\nstp a.stp\n")
                .find("<string>:2:"),
            std::string::npos);
  // A signed count.
  EXPECT_NE(ErrorOf("solver gw-moat\ntiming-reps +3\nstp a.stp\n")
                .find("<string>:2:"),
            std::string::npos);
  // Empty roster / empty source list.
  EXPECT_NE(ErrorOf("stp a.stp\n").find("solver"), std::string::npos);
  EXPECT_NE(ErrorOf("solver gw-moat\n").find("source"), std::string::npos);
}

TEST(SuiteManifestTest, DigestTracksContentAndReferencedFiles) {
  const std::string manifest_path = WriteTinySuite();
  const SuiteManifest a = LoadSuiteManifest(manifest_path);
  const SuiteManifest b = LoadSuiteManifest(manifest_path);
  EXPECT_EQ(SuiteDigest(a), SuiteDigest(b));

  // A semantic knob flips the digest.
  SuiteManifest c = a;
  c.seed += 1;
  EXPECT_NE(SuiteDigest(a), SuiteDigest(c));

  // Editing a referenced file flips the digest, same manifest text.
  // (SuiteDigest reads the file at call time, so capture "before" first.)
  const std::string before = SuiteDigest(a);
  {
    std::ofstream out(::testing::TempDir() + "/suite_tiny.stp",
                      std::ios::app);
    out << "# touched\n";
  }
  EXPECT_NE(before, SuiteDigest(LoadSuiteManifest(manifest_path)));
  // Restore for the tests that follow.
  {
    std::ofstream out(::testing::TempDir() + "/suite_tiny.stp");
    out << kTinyStp;
  }
}

// --- runner + baseline -------------------------------------------------------

TEST(SuiteRunnerTest, RunsTheMatrixAndStampsContext) {
  const SuiteManifest manifest = LoadSuiteManifest(WriteTinySuite());
  const SuiteBaseline b = RunSuite(manifest);
  ASSERT_EQ(b.cells.size(), 2u);  // 1 instance x 2 solvers
  EXPECT_EQ(b.solvers, manifest.solvers);
  EXPECT_EQ(b.seed, 7u);
  for (const SuiteCell& cell : b.cells) {
    EXPECT_EQ(cell.case_name, "suite_tiny");
    EXPECT_EQ(cell.instance, "terminals");
    EXPECT_EQ(cell.n, 4);
    EXPECT_EQ(cell.m, 4);
    EXPECT_TRUE(cell.feasible);
    EXPECT_GT(cell.cost, 0);
    EXPECT_GT(cell.dual_lb_fixed, 0);
    EXPECT_GE(cell.ratio, 1.0);
    EXPECT_GE(cell.p95_ms, cell.p50_ms);
  }
  // Quality is deterministic across whole runs, not just repetitions.
  const SuiteBaseline again = RunSuite(manifest);
  ASSERT_EQ(again.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < b.cells.size(); ++i) {
    EXPECT_EQ(again.cells[i].cost, b.cells[i].cost);
    EXPECT_EQ(again.cells[i].dual_lb_fixed, b.cells[i].dual_lb_fixed);
    EXPECT_EQ(again.cells[i].ratio, b.cells[i].ratio);
  }
}

TEST(SuiteBaselineTest, JsonRoundTripIsBitIdentical) {
  const SuiteManifest manifest = LoadSuiteManifest(WriteTinySuite());
  SuiteBaseline b = RunSuite(manifest);
  b.manifest = "suite_tiny.dsf-suite";
  b.manifest_digest = SuiteDigest(manifest);
  b.skipped_sources.push_back("steinlib/b01.stp");

  const std::string once = SuiteBaselineToJson(b);
  const SuiteBaseline parsed = ParseSuiteBaseline(once, "<mem>");
  const std::string twice = SuiteBaselineToJson(parsed);
  EXPECT_EQ(once, twice);  // write -> read -> write is a fixed point

  EXPECT_EQ(parsed.manifest_digest, b.manifest_digest);
  EXPECT_EQ(parsed.seed, b.seed);
  EXPECT_EQ(parsed.skipped_sources, b.skipped_sources);
  ASSERT_EQ(parsed.cells.size(), b.cells.size());
  EXPECT_EQ(parsed.cells[0].cost, b.cells[0].cost);
  EXPECT_EQ(parsed.cells[0].ratio, b.cells[0].ratio);
  EXPECT_EQ(parsed.cells[0].p95_ms, b.cells[0].p95_ms);
}

TEST(SuiteBaselineTest, ReaderRejectsMalformedDocuments) {
  EXPECT_THROW((void)ParseSuiteBaseline("{}", "<mem>"), std::runtime_error);
  EXPECT_THROW((void)ParseSuiteBaseline("not json", "<mem>"),
               std::runtime_error);
  EXPECT_THROW(
      (void)ParseSuiteBaseline(
          R"({"dsf_suite_version":99,"context":{},"cells":[]})", "<mem>"),
      std::runtime_error);
}

// A literal out of its field's range is refused by name, never wrapped or
// clamped: each case edits one integer of the committed baseline.
TEST(SuiteBaselineTest, ReaderRejectsOutOfRangeIntegers) {
  std::ifstream in(std::string(DSF_SOURCE_DIR) + "/bench/SUITE_baseline.json",
                   std::ios::binary);
  ASSERT_TRUE(in);
  std::ostringstream content;
  content << in.rdbuf();
  const std::string committed = content.str();
  ASSERT_NO_THROW((void)ParseSuiteBaseline(committed, "<committed>"));

  struct Edit {
    std::string from, to, field;
  };
  const std::vector<Edit> edits = {
      {R"("seed":9181)", R"("seed":-1)", "'seed'"},
      {R"("cost":45)", R"("cost":99999999999999999999)", "'cost'"},
      {R"("timing_reps":3)", R"("timing_reps":4294967299)", "'timing_reps'"},
  };
  for (const Edit& edit : edits) {
    std::string text = committed;
    const std::size_t at = text.find(edit.from);
    ASSERT_NE(at, std::string::npos) << edit.from;
    text.replace(at, edit.from.size(), edit.to);
    try {
      (void)ParseSuiteBaseline(text, "<edited>");
      ADD_FAILURE() << "accepted " << edit.to;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(edit.field), std::string::npos)
          << e.what();
    }
  }
}

// --- the --check gate --------------------------------------------------------

TEST(SuiteCheckTest, UnchangedRunPasses) {
  const SuiteManifest manifest = LoadSuiteManifest(WriteTinySuite());
  const SuiteBaseline committed = RunSuite(manifest);
  const SuiteBaseline fresh = RunSuite(manifest);
  const SuiteCheckResult r = CompareBaselines(committed, fresh);
  EXPECT_TRUE(r.ok) << r.report;
  EXPECT_TRUE(r.regressions.empty());
  EXPECT_NE(r.report.find("OK"), std::string::npos);
}

TEST(SuiteCheckTest, InjectedCostRegressionFails) {
  const SuiteManifest manifest = LoadSuiteManifest(WriteTinySuite());
  const SuiteBaseline committed = RunSuite(manifest);
  SuiteRunOptions inject;
  inject.inject_cost_delta = 1;
  const SuiteBaseline fresh = RunSuite(manifest, inject);
  const SuiteCheckResult r = CompareBaselines(committed, fresh);
  EXPECT_FALSE(r.ok);
  bool saw_cost = false;
  bool saw_ratio = false;
  for (const SuiteRegression& reg : r.regressions) {
    saw_cost |= reg.metric == "cost";
    saw_ratio |= reg.metric == "ratio";  // injected cost moves the ratio too
  }
  EXPECT_TRUE(saw_cost);
  EXPECT_TRUE(saw_ratio);
  EXPECT_NE(r.report.find("cost"), std::string::npos);
}

TEST(SuiteCheckTest, InjectedLatencyRegressionFailsBeyondTheBand) {
  const SuiteManifest manifest = LoadSuiteManifest(WriteTinySuite());
  const SuiteBaseline committed = RunSuite(manifest);
  SuiteRunOptions inject;
  inject.inject_p95_ms = 1e6;  // far past committed * (1 + 3) + 50ms
  const SuiteBaseline fresh = RunSuite(manifest, inject);
  const SuiteCheckResult r = CompareBaselines(committed, fresh);
  EXPECT_FALSE(r.ok);
  ASSERT_FALSE(r.regressions.empty());
  for (const SuiteRegression& reg : r.regressions) {
    EXPECT_EQ(reg.metric, "p95_ms");  // quality must NOT drift on injection
  }
}

TEST(SuiteCheckTest, SmallLatencyJitterStaysWithinTheBand) {
  const SuiteManifest manifest = LoadSuiteManifest(WriteTinySuite());
  const SuiteBaseline committed = RunSuite(manifest);
  SuiteRunOptions inject;
  inject.inject_p95_ms = 1.0;  // absorbed by the 50ms floor
  const SuiteBaseline fresh = RunSuite(manifest, inject);
  const SuiteCheckResult r = CompareBaselines(committed, fresh);
  EXPECT_TRUE(r.ok) << r.report;
}

TEST(SuiteCheckTest, DigestMismatchReportsStaleBaseline) {
  const SuiteManifest manifest = LoadSuiteManifest(WriteTinySuite());
  SuiteBaseline committed = RunSuite(manifest);
  committed.manifest_digest = "0000000000000000";
  SuiteBaseline fresh = RunSuite(manifest);
  fresh.manifest_digest = SuiteDigest(manifest);
  const SuiteCheckResult r = CompareBaselines(committed, fresh);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.regressions.size(), 1u);
  EXPECT_EQ(r.regressions[0].metric, "manifest_digest");
  EXPECT_NE(r.report.find("STALE BASELINE"), std::string::npos);
  EXPECT_NE(r.report.find("--record"), std::string::npos);
}

TEST(SuiteCheckTest, MissingAndExtraCellsAreStructuralRegressions) {
  const SuiteManifest manifest = LoadSuiteManifest(WriteTinySuite());
  const SuiteBaseline committed = RunSuite(manifest);
  SuiteBaseline fresh = committed;
  fresh.cells.pop_back();
  fresh.cells[0].instance = "renamed";
  const SuiteCheckResult r = CompareBaselines(committed, fresh);
  EXPECT_FALSE(r.ok);
  bool saw_missing = false;
  bool saw_extra = false;
  for (const SuiteRegression& reg : r.regressions) {
    saw_missing |= reg.metric == "missing cell";
    saw_extra |= reg.metric == "extra cell";
  }
  EXPECT_TRUE(saw_missing);
  EXPECT_TRUE(saw_extra);
}

// --- the committed corpus ----------------------------------------------------

// The checked-in scenarios/suite/ files must be exactly what
// `dsf suite --emit-corpus` regenerates: a hand-edit would silently decouple
// the corpus from its seeds.
TEST(SuiteCorpusTest, CommittedFilesMatchTheGenerator) {
  const std::string dir = std::string(DSF_SOURCE_DIR) + "/scenarios/suite/";
  const std::vector<CorpusFile> files = SuiteCorpusFiles();
  ASSERT_EQ(files.size(), 7u);  // six .stp lookalikes + the churn trace
  for (const CorpusFile& file : files) {
    std::ifstream in(dir + file.name, std::ios::binary);
    ASSERT_TRUE(in) << "missing committed corpus file " << file.name;
    std::ostringstream content;
    content << in.rdbuf();
    EXPECT_EQ(content.str(), file.content)
        << file.name << " diverges from --emit-corpus; regenerate it";
  }
}

TEST(SuiteCorpusTest, CommittedManifestLoadsAndListsTheWall) {
  const SuiteManifest m = LoadSuiteManifest(
      std::string(DSF_SOURCE_DIR) + "/scenarios/suite/manifest.dsf-suite");
  EXPECT_GE(m.solvers.size(), 5u);
  EXPECT_GE(m.sources.size(), 8u);  // 6 stp + optional + spec
  EXPECT_EQ(m.seed, 9181u);
}

}  // namespace
}  // namespace dsf
