#include "steiner/validate.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "steiner_reference.hpp"

namespace dsf {
namespace {

TEST(ValidateTest, EmptyForestInfeasibleWhenTerminalsSeparated) {
  const Graph g = MakePath(4);
  const IcInstance ic = MakeIcInstance(4, {{0, 1}, {3, 1}});
  EXPECT_FALSE(IsFeasible(g, ic, std::vector<EdgeId>{}));
  EXPECT_FALSE(FeasibilityDiagnostic(g, ic, std::vector<EdgeId>{}).empty());
}

TEST(ValidateTest, FullPathFeasible) {
  const Graph g = MakePath(4);
  const IcInstance ic = MakeIcInstance(4, {{0, 1}, {3, 1}});
  const std::vector<EdgeId> all{0, 1, 2};
  EXPECT_TRUE(IsFeasible(g, ic, all));
}

TEST(ValidateTest, NoTerminalsAlwaysFeasible) {
  const Graph g = MakePath(4);
  const IcInstance ic = MakeIcInstance(4, {});
  EXPECT_TRUE(IsFeasible(g, ic, std::vector<EdgeId>{}));
}

TEST(ValidateTest, MultipleComponentsEachChecked) {
  const Graph g = MakeCycle(6);
  const IcInstance ic = MakeIcInstance(6, {{0, 1}, {2, 1}, {3, 2}, {5, 2}});
  // Edges 0:(0,1) 1:(1,2) connect component 1; component 2 left disconnected.
  EXPECT_FALSE(IsFeasible(g, ic, std::vector<EdgeId>{0, 1}));
  // Add edges 3:(3,4), 4:(4,5) to connect 3 and 5.
  EXPECT_TRUE(IsFeasible(g, ic, std::vector<EdgeId>{0, 1, 3, 4}));
}

TEST(ValidateTest, CrFeasibility) {
  const Graph g = MakePath(5);
  const CrInstance cr = MakeCrInstance(5, {{0, 2}, {3, 4}});
  EXPECT_FALSE(IsFeasibleCr(g, cr, std::vector<EdgeId>{0}));
  EXPECT_TRUE(IsFeasibleCr(g, cr, std::vector<EdgeId>{0, 1, 3}));
}

TEST(ValidateTest, MinimalFeasibleDetectsSlack) {
  const Graph g = MakePath(5);
  const IcInstance ic = MakeIcInstance(5, {{0, 1}, {2, 1}});
  const std::vector<EdgeId> slack{0, 1, 2};  // edge 2 unnecessary
  EXPECT_TRUE(IsFeasible(g, ic, slack));
  EXPECT_FALSE(IsMinimalFeasible(g, ic, slack));
  EXPECT_TRUE(IsMinimalFeasible(g, ic, std::vector<EdgeId>{0, 1}));
}

TEST(ValidateTest, DiagnosticNamesOffendingComponent) {
  const Graph g = MakePath(4);
  const IcInstance ic = MakeIcInstance(4, {{0, 42}, {3, 42}});
  const auto diag = FeasibilityDiagnostic(g, ic, std::vector<EdgeId>{});
  EXPECT_NE(diag.find("42"), std::string::npos);
}

}  // namespace
}  // namespace dsf
